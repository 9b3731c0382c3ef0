(** DaCapo-like execution harness.

    Runs a benchmark for a number of iterations against a given collector
    configuration.  As in DaCapo, all iterations but the last are warm-up
    rounds, the last is the measured run, and a [System.gc()] can be
    forced between iterations (the paper's test case (1)) or disabled
    (case (2)). *)

type result = {
  bench_name : string;
  gc_name : string;
  heap_bytes : int;
  young_bytes : int;
  tlab : bool;
  system_gc : bool;
  crashed : bool;  (** the benchmark is one of the three known crashers *)
  oom : bool;  (** the run died with an out-of-memory condition *)
  iterations : Gcperf_workload.Mutator.iteration_stats array;
  total_s : float;  (** sum of all iteration durations *)
  final_s : float;  (** duration of the measured (last) iteration *)
  events : Gcperf_sim.Gc_event.event list;  (** full GC log of the run *)
}

val run :
  ?telemetry:Gcperf_telemetry.Telemetry.t ->
  ?seed:int ->
  ?iterations:int ->
  Gcperf_machine.Machine.t ->
  Suite.bench ->
  gc:Gcperf_gc.Gc_config.t ->
  system_gc:bool ->
  unit ->
  result
(** Defaults: seed 42, 10 iterations (the study's configuration).
    [telemetry] is threaded to {!Gcperf_runtime.Vm.create}; observation
    only — passing a registry never changes the simulated run. *)

val run_with_log :
  ?telemetry:Gcperf_telemetry.Telemetry.t ->
  ?seed:int ->
  ?iterations:int ->
  Gcperf_machine.Machine.t ->
  Suite.bench ->
  gc:Gcperf_gc.Gc_config.t ->
  system_gc:bool ->
  unit ->
  result * Gcperf_sim.Gc_event.t
(** {!run}, also returning the pause log the run's VM wrote, phases
    included.  The log keeps the pauses of a run that ran out of memory,
    whose [events] are empty; a crashed run's log is empty. *)

val best_of : result list -> result option
(** The run with the smallest total execution time, ignoring crashed and
    OOM runs (used by the paper's GC ranking). *)
