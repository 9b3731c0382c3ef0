(** Client-side experiments (§4.2): Figure 5 and Tables 5-7.

    The YCSB-like client runs its 50 % read / 50 % update transaction
    phase against the stressed server for each of the three main
    collectors.  Figure 5 plots the highest 10 000 latency points with
    the server's GC pauses overlaid; Tables 5-7 compute the full-point-set
    statistics (average, extremes, and the 0.5-1.5x / >2^n x bands with
    their GC correlation). *)

val run_scope :
  fig5:Artifact.make ->
  table567:Artifact.make ->
  scope:Scope.t ->
  ?jobs:int ->
  unit ->
  Artifact.t list
(** Both artifacts from one campaign over ParallelOld, CMS and G1.

    Figure 5 gives each collector a [row_kind] "run" row ([gc],
    [points], [max_latency_ms], [gc_correlated_points]), then its plotted
    points: the highest 10 000 latencies as "read" and "update" rows and
    the server's pauses as "pause" rows (pause length in ms), each with
    [time_s] and [latency_ms]; the other cells of each row are 0.

    Tables 5-7 give one row per (collector, [op], [band]): the op's
    [avg_ms], [min_ms] and [max_ms], the band's [pct_requests] and
    [pct_gc], and the run's [points].  Each op's first band is
    0.5x-1.5x AVG. *)

val render_figure5 : Artifact.t -> string

val render_tables567 : Artifact.t -> string
