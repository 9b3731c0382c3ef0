(** Ergonomics experiment: fixed vs adaptive sizing on the heap sweep.

    Reruns the Figure 3 heap sweep (one benchmark, the study's
    heap/young grid, all six collectors) twice per point — once with the
    study's fixed sizes and once with the adaptive sizing policy
    attached ([-XX:+UseAdaptiveSizePolicy]) — and reports pause
    statistics side by side together with the policy's convergence
    trajectory (young-generation size and decayed average pause, one
    point per minor collection). *)

type run_stats = {
  minor_pauses : int;
  avg_minor_ms : float;
  p99_minor_ms : float;
  trailing_p99_ms : float;
      (** p99 over the second half of the minor pauses — what the run
          converged to, as opposed to what it went through *)
  max_pause_ms : float;
  total_s : float;
  oom : bool;
  final_young_bytes : int;
  final_survivor_ratio : int;
  final_tenuring : int;
  resizes : int;  (** young-generation grow + shrink decisions applied *)
  trajectory : Gcperf_policy.Policy.trajectory_point list;
}

val measure :
  Gcperf_machine.Machine.t ->
  Gcperf_dacapo.Suite.bench ->
  gc:Gcperf_gc.Gc_config.t ->
  iterations:int ->
  seed:int ->
  run_stats
(** One complete run driven through [Vm] + [Mutator] directly (rather
    than the DaCapo harness) so the attached policy's trajectory and
    final sizes can be read back.  Also used by {!Tune}. *)

type cell = {
  gc : string;
  heap_bytes : int;
  young_bytes : int;  (** configured (initial) young size *)
  adaptive : bool;
  stats : run_stats;
  within_goal : bool;  (** trailing p99 at or under the pause goal *)
}

type result = {
  bench : string;
  pause_goal_ms : float;
  iterations : int;
  cells : cell list;
}

val run_scope :
  scope:Scope.t -> ?jobs:int -> ?pause_goal_ms:float -> unit -> result
(** Grid and iteration counts follow [scope] exactly as Figure 3's
    sweep does; [jobs] fans the (sizes x collector x mode) cells out
    with the deterministic pool. *)

val render : result -> string
