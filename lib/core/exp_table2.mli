(** Table 2: benchmark stability.

    Each stable-subset benchmark is run 10 times (10 iterations each,
    baseline Java configuration, system GC between iterations) and the
    relative standard deviations of the final-iteration duration and of
    the total execution time are reported — the criteria the paper used
    to select its benchmark subset. *)

val run_scope :
  Artifact.make -> scope:Scope.t -> ?jobs:int -> unit -> Artifact.t
(** One row per benchmark: [bench], [final_rsd_pct], [total_rsd_pct]
    and [runs].  [jobs] caps the worker-domain count for the cell
    fan-out (default {!Exp_common.default_jobs}); the artifact is
    identical for any value. *)

val render : Artifact.t -> string
