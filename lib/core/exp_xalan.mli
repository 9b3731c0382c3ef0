(** Figures 1 and 2: the Xalan pause-time and per-iteration study.

    One run of Xalan per collector, with and without the forced system GC
    between iterations, at the baseline configuration.  Figure 1 scatters
    every stop-the-world pause (x = time since start, y = pause length);
    Figure 2 plots the duration of iterations 4-10 ("the first 4 warm-up
    rounds are enough for the benchmark execution to stabilize"). *)

type gc_series = {
  gc : string;
  pause_points : (float * float) array;  (** (time_s, pause_s) *)
  iteration_durations : float array;  (** all iterations, seconds *)
  total_s : float;
}

type result = { with_system_gc : gc_series list; without_system_gc : gc_series list }

val run_scope : scope:Scope.t -> ?jobs:int -> ?bench:string -> unit -> result

val render_figure1 : result -> string

val render_figure2 : result -> string
