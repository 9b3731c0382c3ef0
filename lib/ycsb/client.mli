(** YCSB-like client.

    A workload generator in the spirit of the Yahoo! Cloud Serving
    Benchmark: a {e loading phase} that populates the database and a
    {e transactions phase} that executes a read/update mix, recording
    per-operation latency.

    The client runs on its own (16-core) machine, so its latency model is
    decoupled from the server VM: each operation's latency is its base
    service time (reads slow down in steps as the database grows; updates
    are constant-time log appends), plus the time spent waiting when the
    operation lands during — or right after — a server stop-the-world
    pause.  This coupling is what makes "almost every peak in the client
    response time correspond to a collection on the server" (§4.2). *)

type op_kind = Read | Update

type point = {
  time_s : float;  (** arrival time since the start of the experiment *)
  kind : op_kind;
  latency_ms : float;
  gc_correlated : bool;
      (** the operation overlapped a server GC pause (or its drain) *)
}

type workload = {
  read_frac : float;  (** 0.5 in the paper's custom workload *)
  ops_per_s : float;
  duration_s : float;
  read_base_ms : float;  (** read service time on an empty database *)
  read_step_ms : float;  (** added per {!read_step_bytes} of database *)
  read_step_bytes : int;
  update_base_ms : float;
  jitter_sigma : float;  (** log-normal service-time noise *)
  drain_factor : float;
      (** backlog drain: requests arriving within [drain_factor * pause]
          after a pause still queue behind it *)
}

val paper_workload : workload
(** 50 % read / 50 % update, two virtual hours, ~150 ops/s per the study's
    scale (>1 million points per collector). *)

val db_bytes_at : (float * int) array -> float -> int
(** Database size at a given time: the last timeline sample at or before
    it (0 before the first sample).  Shared with {!Resilient}, whose
    service-time model must match this client's. *)

val run :
  workload ->
  pauses:(float * float) array ->
  db_timeline:(float * int) array ->
  seed:int ->
  point array
(** [run w ~pauses ~db_timeline ~seed] generates the client-side latency
    points for an experiment whose server produced the given
    stop-the-world [pauses] (seconds, as from {!Gcperf_sim.Gc_event.intervals})
    and database-size timeline.  Arrivals are Poisson. *)

val report : point array -> kind:op_kind -> Gcperf_stats.Stats.latency_report
(** The Tables 5-7 statistics for one operation type. *)
