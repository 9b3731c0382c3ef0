(** Fault-injection campaign: resilience under faults (the [faults]
    artifact).

    A grid over collector x fault profile for the Cassandra/YCSB
    deployment.  Each cell replays the stress server under one
    collector, then drives the same client workload through every
    {!Gcperf_fault.Profile} twice: once with the pre-resilience stack
    (naive client, unbounded server queue) and once with the resilient
    stack (timeouts, bounded retries with jitter, hedged reads, retry
    budget; server-side load shedding and pause-time fast rejection).
    Reported per session: goodput, retry amplification and the
    p50/p99/p99.9 client latency — the "does resilience tame the
    GC-pause tail" question the paper's §4.2 data raises but cannot
    answer.

    Determinism: one pool cell per collector; the server run and all of
    its fault sessions execute inside the cell, so results are
    byte-identical for every [~jobs]. *)

type session = {
  gc : string;
  profile : string;
  resilient : bool;
  summary : Gcperf_ycsb.Resilient.summary;
}

type cell = {
  gc : string;
  server : Exp_server.server_run;
  sessions : session list;
}

type result = { scope : Scope.t; cells : cell list }

val collectors : Gcperf_gc.Gc_config.kind list
(** CMS, G1, ParallelOld — the client-server collectors of §4. *)

val run_scope : scope:Scope.t -> ?jobs:int -> unit -> result

val sessions : result -> session list
(** Every session of every cell, in cell order. *)

val to_artifact : Artifact.make -> result -> Artifact.t
(** One row per session, in {!sessions} order: [gc], [profile],
    [resilience] ("off" or "on") and the session's
    {!Gcperf_ycsb.Resilient.summary} fields; the [seed] param is the
    client sessions' seed. *)

val render : Artifact.t -> string
