(** Garbage-First.

    Region-based collector matching the JDK8 behaviour the paper measures:

    - young collections evacuate all eden/survivor regions in parallel;
      their cost is dominated by copying and by scanning the remembered
      sets of the collected regions;
    - concurrent marking starts when old + humongous occupancy crosses
      the initiating heap occupancy (IHOP); it ends with a remark pause
      and a cleanup pause that releases fully-dead regions and selects
      mixed-collection candidates (the regions with the most garbage
      first — hence the name);
    - subsequent collections are {e mixed}: they add a slice of those old
      regions to the collection set;
    - humongous objects (> half a region) get dedicated contiguous
      regions, reclaimed at cleanup or full GC;
    - the full collection — triggered by [System.gc()] or by evacuation
      failure — is a {b single-threaded} mark-compact in JDK8.  This is
      the implementation detail behind the paper's headline benchmark
      finding: G1 is the worst collector when DaCapo forces a full GC
      between iterations. *)

val ihop : float
(** Initiating heap occupancy ([-XX:InitiatingHeapOccupancyPercent], as
    a fraction): old + humongous occupancy that starts marking.
    ConcurrentRegions starts its cycles at the same occupancy. *)

val create : Gc_ctx.t -> Gc_config.t -> Collector.t
