(** Figure 3: GC ranking by number of experiments won.

    "An experiment is defined by a benchmark, a heap size and a Young
    Generation size.  For each experiment we consider the run with the
    shortest execution time as the best."  The figure reports, per
    collector, the percentage of experiments in which it produced the
    best run — with the system GC enabled (a) and disabled (b). *)

type ranking = (string * float) list
(** (collector, percent of experiments won), descending. *)

type result = {
  with_system_gc : ranking;
  without_system_gc : ranking;
  experiments : int;  (** experiments per mode *)
}

val run_scope : scope:Scope.t -> ?jobs:int -> unit -> result

val render : result -> string
