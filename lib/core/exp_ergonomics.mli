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

val run_scope :
  Artifact.make -> scope:Scope.t -> ?jobs:int -> unit -> Artifact.t
(** Grid and iteration counts follow [scope] exactly as Figure 3's
    sweep does; [jobs] fans the (sizes x collector x mode) cells out
    with the deterministic pool.  Each cell ([gc], [heap_bytes], [mode]
    "fixed" or "adaptive") gives a [row_kind] "summary" row of its
    {!run_stats} ([collection] is the minor-pause count, [young_bytes]
    the final young size), [within_goal] and [oom], then one
    "trajectory" row per policy decision ([collection], [young_bytes],
    [pause_ms], [avg_pause_ms]); the other cells of each row are 0.  The
    [bench], [pause_goal_ms] and [iterations] params name the run. *)

val render : Artifact.t -> string
