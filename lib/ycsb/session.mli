(** The one YCSB client API.

    Historically the repo grew two parallel client entry points:
    {!Client.run} (the happy path — every request answered, latency =
    service + pause overlap) and {!Resilient.run} (the full failure
    model — injector, gateway, timeouts, retries, hedging).  Callers had
    to know which to import and how to pair a resilience record with the
    matching gateway config.  This module is the single front door both
    are reached through: one {!run} driven by a typed {!Resilience.t},
    and {!points} for the happy-path latency trace the Figure 5 / Tables
    5-7 campaigns plot.  The legacy entry points remain for
    compatibility but new code — including the cluster coordinator —
    goes through here. *)

module Resilience : sig
  type t =
    | Off
        (** the pre-resilience stack: naive client (wait forever, never
            retry, never hedge) against an unbounded server queue *)
    | Paper_defaults
        (** the PR 5 headline configuration: 250 ms timeout, 4 attempts,
            bounded backoff, 20 % retry budget, 20 ms read hedging,
            against the degraded (shedding) gateway *)
    | Custom of Resilient.resilience * Gcperf_kvstore.Gateway.config

  val client : t -> Resilient.resilience
  (** The client-side knobs this level resolves to. *)

  val gateway : t -> Gcperf_kvstore.Gateway.config
  (** The server-admission config this level pairs with. *)
end

type source = {
  pauses : (float * float) array;
      (** the server's stop-the-world intervals, seconds *)
  db_timeline : (float * int) array;
}
(** What a client session replays: the observable behaviour of one
    server run ({!Gcperf_sim.Gc_event.intervals} +
    [Server.db_size_timeline]). *)

val run :
  ?resilience:Resilience.t ->
  ?profile:Gcperf_fault.Profile.t ->
  ?telemetry:Gcperf_telemetry.Telemetry.t ->
  ?collector:string ->
  Client.workload ->
  source ->
  seed:int ->
  Resilient.summary
(** One client session against one server: the unified entry point.
    [resilience] defaults to {!Resilience.Off}, [profile] to
    {!Gcperf_fault.Profile.none} — with both defaulted this is the
    happy path expressed in the failure model's vocabulary. *)

val points :
  Client.workload -> source -> seed:int -> Client.point array
(** The happy-path latency trace ({!Client.run}): per-operation points
    with GC-correlation flags, as Figure 5 scatters them.  No faults, no
    resilience — the paper's §4.2 client. *)
