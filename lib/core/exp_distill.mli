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

val run_scope :
  Artifact.make -> scope:Scope.t -> ?jobs:int -> unit -> Artifact.t
(** One row per (ladder point, collector): [gc], [heap_bytes],
    [young_bytes], [oom], the distilled cost ([t_ideal_s], [t_real_s],
    [distilled] and its [stw_over], [steal_over] and [tax_over] shares),
    its components in seconds ([stw_s], [steal_s], [tax_s], [alloc_s])
    and the stop-the-world time per phase ([safepoint_s] ... [fold_s],
    and [other_s] for the rest).  The [bench] and [seed] params name the
    run. *)

val ranking : Artifact.t -> (string * float) list
(** Mean distilled cost per collector over the non-OOM rows, sorted
    ascending (best first); collectors with only OOM rows rank last
    with [infinity]. *)

val render : Artifact.t -> string
