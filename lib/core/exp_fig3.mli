(** Figure 3: GC ranking by number of experiments won.

    "An experiment is defined by a benchmark, a heap size and a Young
    Generation size.  For each experiment we consider the run with the
    shortest execution time as the best."  The figure reports, per
    collector, the percentage of experiments in which it produced the
    best run — with the system GC enabled (a) and disabled (b). *)

val run_scope :
  Artifact.make -> scope:Scope.t -> ?jobs:int -> unit -> Artifact.t
(** One row per (mode, collector): [mode] ("system-gc" or
    "no-system-gc"), [collector] and [percent_won], each mode's rows in
    descending order; the [experiments] param counts a mode's
    experiments. *)

val render : Artifact.t -> string
