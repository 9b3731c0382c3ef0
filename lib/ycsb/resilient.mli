(** Resilient YCSB client: the fault-tolerant request loop.

    {!Client} replays the happy path — every request is answered, the
    only latency source is the server's pause schedule.  This module
    replays the same workload through the full failure model: a
    {!Gcperf_fault.Injector} decides which responses are delayed,
    dropped or errored (and when the wider client population mounts a
    load spike), a {!Gcperf_kvstore.Gateway} decides which requests the
    degraded server queues, sheds or fast-rejects, and the client reacts
    with per-request timeouts, bounded exponential backoff with jitter,
    a global retry budget and (for idempotent reads) hedged requests.

    The whole session is a discrete-event simulation on the simulated
    clock: attempts are processed in time order from one event heap, the
    session PRNG is consumed in that order, and every collaborator is
    seeded from the cell seed — so a session is byte-reproducible and
    independent of the worker count running it.  What the client saw is
    returned as a {!summary}. *)

type resilience = {
  timeout_ms : float;  (** per-attempt timeout; [infinity] disables *)
  max_attempts : int;  (** 1 = never retry *)
  backoff_base_ms : float;
  backoff_cap_ms : float;
  backoff_jitter : float;
      (** uniform extra fraction of the backoff, in [0, jitter] *)
  retry_budget_pct : float;
      (** global retry budget as a percentage of the request count: once
          spent, failures stop retrying — the valve against retry storms *)
  hedge_ms : float;
      (** hedge reads still unanswered after this long; [0] disables *)
}

val none : resilience
(** The pre-resilience client: wait forever, never retry, never hedge. *)

val paper_defaults : resilience
(** 250 ms timeout, 4 attempts, 50 ms..1 s backoff with 50 % jitter,
    20 % retry budget, 20 ms read hedging. *)

type summary = {
  profile : string;
  requests : int;
  ok : int;
  failed : int;
  attempts : int;
  retries : int;
  retry_amplification : float;  (** attempts per request *)
  goodput_ops_s : float;  (** successful requests per second *)
  p50_ms : float;
  p99_ms : float;
  p999_ms : float;
  max_ms : float;  (** over successful requests, arrival to response *)
  timeouts : int;
  sheds : int;
  fast_rejects : int;
  drops : int;
  errors : int;
  hedge_wins : int;
}

val run :
  Client.workload ->
  profile:Gcperf_fault.Profile.t ->
  resilience:resilience ->
  gateway:Gcperf_kvstore.Gateway.config ->
  pauses:(float * float) array ->
  db_timeline:(float * int) array ->
  seed:int ->
  summary
(** Run one fault session.  [pauses] and [db_timeline] come from a
    server run ({!Gcperf_sim.Gc_event.intervals} /
    [Server.db_size_timeline]).  An event packs a request number and an
    attempt number into one [int], so [run] raises [Invalid_argument]
    when [max_attempts] exceeds 2^40 - 1 or the session draws more than
    2^22 requests. *)
