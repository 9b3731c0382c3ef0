(** Collection mechanics over the region heap layout.

    G1 and ConcurrentRegions share these building blocks, the region
    counterpart of {!Gen_algo}, and differ only in how they price them
    (G1's JDK 8 full collection runs on one thread, the pauseless
    family's on every GC thread):

    - {!place}: first-fit bump placement into a target region;
    - {!release_dead_humongous}: reclaiming the humongous objects the
      last trace left unmarked;
    - {!mark_compact}: the stop-the-world mark-compact of the whole
      heap.

    None of them charges the clock: each collector prices the pause from
    the figures they return. *)

val place :
  Gcperf_heap.Region_heap.t ->
  Gcperf_heap.Region_heap.region option ref ->
  kind:Gcperf_heap.Region_heap.region_kind ->
  size:int ->
  Gcperf_heap.Region_heap.region option
(** [place rheap target ~kind ~size] is the region an object of [size]
    bytes (at most one region) is bump-placed in: [!target] while it has
    room, else a free region claimed for [kind], which becomes the new
    target.  [None] when no free region is left.  The caller accounts
    for the object. *)

val release_dead_humongous : Gcperf_heap.Region_heap.t -> int
(** Releases every humongous object the last trace left unmarked and
    returns their bytes.  Heads are found in region order and released
    last-found first, the order free-slot recycling (hence object ids)
    depends on. *)

type compaction = {
  live : int;  (** bytes reachable from the roots *)
  freed : int;  (** bytes of the objects freed, humongous included *)
  moved_bytes : int;  (** bytes packed into fresh old regions *)
  moved_objects : int;  (** objects relocated *)
}

val mark_compact :
  Gc_ctx.t ->
  Gcperf_heap.Region_heap.t ->
  collector:string ->
  min_age:int ->
  compaction
(** Mark-compact of the whole region heap: traces from the roots, frees
    the unmarked objects region by region, releases dead humongous
    objects, retires every eden, survivor and old region, then bump-packs
    the marked objects in trace order into fresh old regions, stamping
    each with at least [min_age].  Live humongous objects stay put.
    [collector] prefixes the error messages.
    @raise Gc_ctx.Out_of_memory when live data exceeds the heap or the
    packing runs out of free regions. *)
