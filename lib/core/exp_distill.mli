(** Distilled collector cost — the LBO methodology of Cai & Blackburn
    applied to the study's collectors.

    For every (heap, young) point of the Table 3 ladder, runs h2 under
    all eight collectors (six JDK8 + concurrent-regions + journal-rc)
    with telemetry on, synthesises an ideal-GC baseline from the
    recorded mutator timeline (collector costs struck out, honest
    allocation tax retained) and reports the distilled cost
    [(t_real − t_ideal)/t_ideal] decomposed into stop-the-world,
    concurrent core-steal and barrier/journal mutator-tax shares —
    a ranking by what a collector actually costs rather than how long
    it pauses.  See DESIGN.md §18. *)

type cell = {
  gc : string;
  heap_bytes : int;
  young_bytes : int;
  oom : bool;
  cost : Gcperf_distill.Distill.cost;
}

type result = { scope : Scope.t; bench : string; cells : cell list }

val run_scope : scope:Scope.t -> ?jobs:int -> unit -> result

val ranking : cell list -> (string * float) list
(** Mean distilled cost per collector over the non-OOM cells, sorted
    ascending (best first); collectors with only OOM cells rank last
    with [infinity]. *)

val render : result -> string
