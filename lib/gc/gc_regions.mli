(** ConcurrentRegions: a ZGC/Shenandoah-style single-generation region
    collector (beyond the paper).

    Marking and relocation both run concurrently, as tick-driven phases
    paid for by core stealing and barrier taxes; the only
    stop-the-world events are three sub-millisecond flips (initial
    mark, remark, cleanup).  Mutator reference stores go through a
    self-healing load barrier over the store's forwarding table.
    Allocation failure mid-cycle degenerates to a parallel
    stop-the-world mark-compact, the analogue of ZGC's allocation
    stall. *)

val create : Gc_ctx.t -> Gc_config.t -> Collector.t
