(** Figures 1 and 2: the Xalan pause-time and per-iteration study.

    One run of Xalan per collector, with and without the forced system GC
    between iterations, at the baseline configuration.  Figure 1 scatters
    every stop-the-world pause (x = time since start, y = pause length);
    Figure 2 plots the duration of iterations 4-10 ("the first 4 warm-up
    rounds are enough for the benchmark execution to stabilize"). *)

val run_scope :
  fig1:Artifact.make ->
  fig2:Artifact.make ->
  scope:Scope.t ->
  ?jobs:int ->
  unit ->
  Artifact.t list
(** Both figures' artifacts from one campaign.  Each run (a [mode],
    "system-gc" or "no-system-gc", and a [gc]) gives one [row_kind]
    "series" row, then Figure 1 one "pause" row per pause ([time_s],
    [pause_s]) and Figure 2 one "iteration" row per iteration
    ([iteration], [duration_s]).  A series row carries the run's
    [total_s], and Figure 1's also its [pauses] and [max_pause_s]; the
    other cells of each row are 0. *)

val render_figure1 : Artifact.t -> string

val render_figure2 : Artifact.t -> string
