(** One replica node of the simulated kvstore ring.

    A node's life has two phases.  {e Generation} runs a real, fully
    independent VM — own heap, own collector, own Cassandra-like store,
    own PRNG stream — under a steady serving load, and distils it into a
    {!timeline}: the stop-the-world intervals the collector produced and
    the database-size samples the service-time model reads.  {e Session}
    wraps a timeline, a seeded {!Gcperf_fault.Injector} and a
    {!Gcperf_kvstore.Gateway} into the object the coordinator routes
    sub-requests to.

    Generation is the expensive step, and a timeline depends only on
    (collector, node id, scope) — never on the ring size, fan-out or
    hedging knob — so experiment runners generate each collector's node
    timelines once, up front, and share them read-only across every grid
    cell ({!timeline} is immutable after generation). *)

type timeline = {
  collector : string;
  node_seed : int;
  duration_s : float;  (** virtual seconds the node actually served *)
  intervals : (float * float) array;
      (** sorted stop-the-world [(start_s, end_s)] intervals *)
  db_timeline : (float * int) array;
  pause_fraction : float;
      (** total paused time / duration: the per-node duty cycle whose
          fan-out amplification is the experiment's whole point *)
  oom : bool;
}

val generate :
  Gcperf_machine.Machine.t ->
  gc:Gcperf_gc.Gc_config.t ->
  duration_s:float ->
  ops_per_s:float ->
  read_frac:float ->
  preload_bytes:int ->
  seed:int ->
  timeline
(** Run one node VM for [duration_s] virtual seconds of serving (after
    replaying [preload_bytes] of commit log, as a ring node restarted
    into an existing dataset must) and summarise it.  An OOM ends the
    run early and is recorded rather than raised. *)

type t

val create :
  id:int ->
  timeline ->
  profile:Gcperf_fault.Profile.t ->
  gateway:Gcperf_kvstore.Gateway.config ->
  seed:int ->
  t
(** Session wrapper: the injector is seeded from [seed] (derive it from
    the cell seed and [id]), the gateway replays the timeline's pause
    intervals. *)

val timeline : t -> timeline
val injector : t -> Gcperf_fault.Injector.t
val gateway : t -> Gcperf_kvstore.Gateway.t

val paused_at : t -> float -> bool
(** Is the node inside a stop-the-world interval at this time? *)

val crosses_pause : t -> start_s:float -> end_s:float -> bool
(** Does [(start_s, end_s)] overlap any stop-the-world interval?  The
    per-sub-request "did my critical path hit a GC pause" probe. *)

val record_hint : t -> unit
(** Count a hinted write stored on this node for a paused replica. *)

val hints : t -> int
