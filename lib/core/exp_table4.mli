(** Table 4: TLAB influence.

    For each collector and stable benchmark, the run is executed with and
    without thread-local allocation buffers at the baseline heap
    configuration.  Following the paper: if the no-TLAB total execution
    time exceeds the TLAB one by more than a 5 % deviation band the TLAB
    helped (+), if it is lower by more than the band the TLAB hurt (-),
    otherwise it made no difference (=). *)

type influence = Helps | Hurts | Indifferent

val influence_to_string : influence -> string
(** "+", "-" or "=". *)

val classify : deviation:float -> with_tlab:float -> without_tlab:float -> influence
(** The paper's 5 % rule, exposed for tests. *)

val run_scope :
  Artifact.make -> scope:Scope.t -> ?jobs:int -> unit -> Artifact.t
(** One row per (benchmark, collector): [bench], [gc], [with_tlab_s],
    [without_tlab_s] and [influence] ("+", "-" or "="). *)

val render : Artifact.t -> string
(** Benchmarks sorted by name, collectors in row order. *)
