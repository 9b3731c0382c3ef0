(** Client-server experiments, server side (§4.1 and Figure 4).

    The server is the Cassandra-like store on the 48-core machine with a
    64 GB heap and a 12 GB young generation.  Two campaigns:

    - {b ParallelOld analysis}: the default configuration under a pure
      loading workload for one and two virtual hours, then the stress
      configuration (memtable and commit log sized to the heap,
      database pre-loaded, commit log replayed at startup) for two hours
      — reproducing the 17-25 s young pauses, the >100 s full collection
      that appears in the second hour, and the minutes-long full
      collection of the stress test;
    - {b Figure 4}: the same stress workload under CMS and G1, whose
      stop-the-world pauses stay in seconds. *)

type server_run = {
  gc : string;
  config_name : string;  (** "default" or "stress" *)
  duration_s : float;  (** total virtual time, including replay *)
  pauses : (float * float) array;  (** (start_s, duration_s) of every STW pause *)
  intervals : (float * float) array;  (** (start_s, end_s), for the client *)
  db_timeline : (float * int) array;
  young_max_s : float;
  full_max_s : float;
  full_count : int;
  max_pause_s : float;
  oom : bool;
}

val run_server_config :
  scope:Scope.t ->
  label:string ->
  config:Gcperf_gc.Gc_config.t ->
  stress:bool ->
  hours:float ->
  unit ->
  server_run
(** Like {!run_server_scope} but with an explicit GC configuration and
    display label — the pauseless experiment sweeps heap sizes and
    journal-fold-jobs variants of the same collector kind. *)

val run_server_scope :
  scope:Scope.t ->
  kind:Gcperf_gc.Gc_config.kind ->
  stress:bool ->
  hours:float ->
  unit ->
  server_run

type figure4 = { cms : server_run; g1 : server_run }

val figure4_scope : scope:Scope.t -> ?jobs:int -> unit -> figure4

val render_figure4 : figure4 -> string

type parallel_old_analysis = {
  one_hour : server_run;
  two_hours : server_run;
  stress : server_run;
}

val parallel_old_analysis_scope :
  scope:Scope.t -> ?jobs:int -> unit -> parallel_old_analysis

val render_parallel_old : parallel_old_analysis -> string
