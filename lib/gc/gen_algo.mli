(** Collection algorithms over the generational heap layout.

    Serial, ParNew, Parallel, ParallelOld and CMS all share these two
    building blocks and differ only in their parameters:

    - {!collect_young}: a copying collection of the young generation
      (eden + from-survivor into to-survivor/old), serial or parallel,
      with bump-pointer or free-list promotion;
    - {!collect_full}: a stop-the-world mark-compact of the entire heap,
      serial or parallel.

    Both genuinely trace the simulated object graph, so survival,
    promotion and reclamation are emergent, and both charge their phases
    to the virtual clock through the machine cost model.  The full
    collection traces through {!Gc_ctx.trace_all}, the one trace from
    the roots every full-heap collection shares; {!Region_algo} is the
    region-heap counterpart of this module (G1, ConcurrentRegions).

    The hot paths are incremental and allocation-free in steady state:
    marks are epoch stamps ({!Gcperf_heap.Obj_store.begin_trace}), work
    lists live in the heap's scratch vectors, and the remembered set is
    refreshed from the previous entries plus the freshly promoted objects
    ({!Gcperf_heap.Gen_heap.refresh_cards}) instead of being rebuilt from
    the whole heap. *)

type young_params = {
  workers : int;  (** GC threads for the stop-the-world young phases *)
  promote_rate : float;
      (** bytes/us for copying a survivor into the old generation
          (bump-pointer for the throughput collectors, free-list for CMS) *)
  usable_old_free : unit -> int;
      (** how much old-generation space promotions may use; CMS plugs in
          its fragmentation model here *)
}

exception Promotion_failure
(** The survivors do not fit in the old generation; the caller must fall
    back to a full collection.  The heap is left untouched. *)

val collect_young :
  Gc_ctx.t ->
  Gcperf_heap.Gen_heap.t ->
  params:young_params ->
  collector:string ->
  reason:string ->
  unit
(** @raise Promotion_failure as described above. *)

val collect_full :
  Gc_ctx.t ->
  Gcperf_heap.Gen_heap.t ->
  workers:int ->
  collector:string ->
  reason:string ->
  unit
(** Mark-compact of both generations: live young objects are evacuated
    into the old generation (overflow stays young), dead objects are
    reclaimed, the old generation is compacted.
    @raise Gc_ctx.Out_of_memory when live data exceeds the heap. *)
