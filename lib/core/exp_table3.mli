(** Table 3: H2 + ConcurrentMarkSweep pause statistics across heap and
    young-generation sizes.

    The upper block keeps the heap at 64 GB and varies the young
    generation from 6 GB to 48 GB; the lower block uses the paper's small
    heaps (1 GB, 500 MB, 250 MB crossed with 200/100 MB young).  Reported
    per configuration: number of pauses (full collections in parentheses),
    average and total pause time, and total execution time — the table in
    which the paper finds the "smaller young generation, longer average
    pause" anomaly for CMS. *)

type row = {
  heap_bytes : int;
  young_bytes : int;
  pauses : int;
  full_pauses : int;
  avg_pause_s : float;
  total_pause_s : float;
  total_exec_s : float;
  oom : bool;
}

type result = { rows : row list; collector : string; bench : string }

val ladder : unit -> (int * int) list
(** The table's (heap, young) grid: the 64 GB block (young 6–48 GB)
    followed by the small-memory block.  Shared with [Exp_distill] so
    the distilled-cost sweep covers exactly the same points. *)

val run_scope :
  scope:Scope.t ->
  ?jobs:int ->
  ?kind:Gcperf_gc.Gc_config.kind ->
  ?bench:string ->
  unit ->
  result
(** Defaults: CMS on h2 (the paper's table).  Other collectors/benchmarks
    are exposed because the paper cross-checks that ParallelOld "behaved
    as expected in both situations". *)

val render : result -> string
