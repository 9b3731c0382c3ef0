(** Client-side experiments (§4.2): Figure 5 and Tables 5-7.

    The YCSB-like client runs its 50 % read / 50 % update transaction
    phase against the stressed server for each of the three main
    collectors.  Figure 5 plots the highest 10 000 latency points with
    the server's GC pauses overlaid; Tables 5-7 compute the full-point-set
    statistics (average, extremes, and the 0.5-1.5x / >2^n x bands with
    their GC correlation). *)

type gc_experiment = {
  gc : string;
  points : Gcperf_ycsb.Client.point array;
  server : Exp_server.server_run;
  read_report : Gcperf_stats.Stats.latency_report;
  update_report : Gcperf_stats.Stats.latency_report;
}

type result = {
  parallel_old : gc_experiment;
  cms : gc_experiment;
  g1 : gc_experiment;
}

val run_scope : scope:Scope.t -> ?jobs:int -> unit -> result

val render_figure5 : result -> string

val render_tables567 : result -> string
