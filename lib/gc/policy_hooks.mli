(** Per-collector ergonomics plumbing.

    The collectors report signals through {!Gc_ctx.record_pause}; these
    helpers cover the other half of the loop — installing capacity
    getters on the context and building the [apply_policy] closure that
    consumes pending decisions at safepoints.  All of them are no-ops
    (a single [None] branch) when no policy is attached. *)

val install_gen_capacity : Gc_ctx.t -> Gcperf_heap.Gen_heap.t -> unit

val gen_heap_hook : Gc_ctx.t -> Gcperf_heap.Gen_heap.t -> unit -> unit
(** [apply_policy] for generational collectors: resizes the young
    generation / survivor split via {!Gcperf_heap.Gen_heap.resize_young}
    (which re-clamps against occupancy), updates the tenuring threshold,
    reports the applied values back to the policy, and bumps the
    [policy.resizes] telemetry counter when the boundary moved. *)

val install_region_capacity : Gc_ctx.t -> Gcperf_heap.Region_heap.t -> unit

val region_heap_hook :
  Gc_ctx.t ->
  Gcperf_heap.Region_heap.t ->
  tenuring:int ref ->
  unit ->
  unit
(** [apply_policy] for G1: maps decisions onto the young target
    ([region_target] wins over [young_bytes] when both are present) via
    {!Gcperf_heap.Region_heap.set_young_target}, updates the
    collector's tenuring threshold reference, and bumps
    [policy.resizes] when the young target moved. *)
