(** [gcperf tune]: sizing advisor.

    Searches a (heap, young) grid for one collector and benchmark,
    measuring each fixed-size candidate, and recommends the
    configuration that meets the pause goal with the best throughput
    (ties broken toward the smaller heap).  The winning point is then
    re-run with the adaptive policy attached; the sizes the policy
    converged to refine the recommended [-Xmn] / [-XX:SurvivorRatio] /
    [-XX:MaxTenuringThreshold] flags. *)

type candidate = {
  heap_bytes : int;
  young_bytes : int;
  stats : Exp_ergonomics.run_stats;
  meets_goal : bool;  (** trailing p99 minor pause at or under the goal *)
}

type recommendation = {
  collector : Gcperf_gc.Gc_config.kind;
  bench : string;
  pause_goal_ms : float;
  iterations : int;
  candidates : candidate list;
  best : candidate option;
      (** [None] only when every candidate ran out of memory *)
  refined : Exp_ergonomics.run_stats option;
      (** adaptive re-run at [best], when there is one *)
}

val run_scope :
  scope:Scope.t ->
  ?jobs:int ->
  ?pause_goal_ms:float ->
  bench:Gcperf_dacapo.Suite.bench ->
  Gcperf_gc.Gc_config.kind ->
  recommendation
(** Candidate measurements fan out on the deterministic pool; the
    adaptive refinement is a single sequential run. *)

val render : recommendation -> string
