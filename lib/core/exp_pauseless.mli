(** Pauseless collector family on the stressed key-value server.

    Sweeps heap size × collector variant: a G1 baseline, the concurrent
    region collector ([ConcurrentRegionsGC]) and the journaled-RC
    collector ([JournalRCGC]) at journal-fold-jobs 1, 2 and 4.  Each
    cell runs the stress server, then replays the pause-spike client
    session with resilience off over the server's pause intervals — the
    configuration where stop-the-world pauses hurt the client tail the
    most.  The pauseless family keeps every pause sub-millisecond, so
    its p99.9 stays flat where G1's reflects its collections; the price
    is mutator throughput (barrier and journaling taxes), and at one
    fold worker the journal fold is the bottleneck that fold-jobs 4
    relieves. *)

type cell = {
  gc : string;  (** display label, e.g. "JournalRCGC/fj4" *)
  heap_gb : int;
  fold_jobs : int;  (** 0 for non-journal collectors *)
  server : Exp_server.server_run;
  summary : Gcperf_ycsb.Resilient.summary;
      (** pause-spike profile, resilience off *)
}

val run_scope :
  Artifact.make -> scope:Scope.t -> ?jobs:int -> unit -> Artifact.t
(** One row per (heap, variant) {!cell}: [gc], [heap_gb], [fold_jobs],
    the server run's [duration_s], [pauses], [max_pause_s],
    [full_count] and [oom], and the client session's [goodput_ops_s],
    [p50_ms], [p99_ms] and [p999_ms]; the [seed] param is the session's
    seed. *)

val render : Artifact.t -> string
