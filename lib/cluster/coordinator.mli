(** Fan-out YCSB coordinator: the tail-at-scale request path.

    One coordinator drives a whole ring for one experiment cell.  Client
    requests arrive as a Poisson stream; a read is a multi-get that
    scatters [fanout] keys across their replica sets, an update is a
    replicated quorum write.  The request completes when its last
    sub-operation completes — which is exactly why collector choice
    dominates cluster p99: at fan-out N the request's critical path
    crosses {e some} replica's GC pause almost surely once
    [N * pause_fraction] approaches 1 (Dean & Barroso's "tail at
    scale", the regime the paper's single-JVM tables cannot reach).

    The whole session is a discrete-event simulation on one event heap
    (the same machinery as {!Gcperf_ycsb.Resilient}): sub-request sends
    consult the target node's fault injector and admission gateway at
    the simulated send time, retries/hedges are scheduled as future
    events, and every stochastic draw comes from the session PRNG in
    event order — so a session is a pure function of (config, ring,
    node timelines, seed) and byte-identical at any worker count.

    Semantics, deliberately Dynamo-flavoured where the paper's Cassandra
    stand-in left them open:

    - the quorum is fixed at read-one / write-two;
    - {e reads} go to the first replica only (a CL.ONE read); a failed
      attempt retries the next replica in ring order;
    - {e hedged reads} ([hedge = true]): if the primary has not answered
      within the resilience config's hedge delay, race the next replica
      and take the first answer;
    - {e writes} go to all [replication] replicas and use sloppy quorum
      with hinted handoff: a natural replica caught inside a GC pause
      (or fault window) is replaced by the next healthy successor on
      the ring, which stores a hint — two acks complete the write, so
      handoff masks paused-replica write latency instead of waiting it
      out.

    Keys follow YCSB's Zipf skew (theta 0.99) over [keyspace]. *)

type config = {
  workload : Gcperf_ycsb.Client.workload;
      (** arrival rate, duration, read mix and the service-time model
          (reads step up with the node's database size, updates are
          flat, log-normal jitter) — the unified client vocabulary *)
  resilience : Gcperf_ycsb.Session.Resilience.t;
      (** hedge delay and lost-response timeout come from here; the
          caller builds each node's gateway from the same value *)
  fanout : int;  (** keys per multi-get *)
  keyspace : int;  (** distinct keys; requests draw Zipf ranks over it *)
  replication : int;  (** write breadth; must match the ring's factor *)
  hedge : bool;
  hinted_handoff : bool;
  profile : Gcperf_fault.Profile.t;
      (** per-node fault schedule; {!Gcperf_fault.Profile.none} isolates
          pure GC effects *)
}

val default : config
(** Read-mostly (95 % multi-get), 4 M keys, YCSB Zipf skew, replication
    3 with read-one / write-two, handoff on, hedging and faults off.
    Callers override rate/duration/fan-out per scope. *)

type summary = {
  requests : int;
  ok : int;
  failed : int;
  reads : int;
  updates : int;
  subops : int;  (** sub-operations (scattered keys + quorum writes) *)
  sends : int;  (** replica sends, including retries and hedges *)
  hedges : int;
  hedge_wins : int;
  hints : int;  (** hinted writes stored for paused replicas *)
  sheds : int;
  errors : int;
  drops : int;
  timeouts : int;
  pause_intersected : int;
      (** requests with >= 1 sub-request overlapping a replica pause *)
  pause_intersection_pct : float;
  max_inflight : int;
      (** peak concurrent requests: the pile-up pauses create *)
  goodput_ops_s : float;
  p50_ms : float;
  p99_ms : float;
  p999_ms : float;
  max_ms : float;
}

val run : config -> ring:Ring.t -> nodes:Node.t array -> seed:int -> summary
(** Drive one session.  [nodes] must have one entry per ring node, in
    node-id order, each built from the same resilience level's gateway
    config; the coordinator only reads their timelines and consumes
    their injector streams. *)
