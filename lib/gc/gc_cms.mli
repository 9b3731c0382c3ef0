(** ConcurrentMarkSweep.

    Young collections are ParNew's parallel copying collections (with
    free-list promotion).  The old generation is collected by a mostly
    concurrent cycle:

    + {e initial mark} — short stop-the-world pause;
    + {e concurrent mark} — runs as virtual time passes, stealing the
      concurrent GC threads from the mutator;
    + {e remark} — stop-the-world pause that performs the real trace
      (cost driven by dirty cards and young-generation occupancy);
    + {e concurrent sweep} — reclaims the garbage identified at remark
      incrementally, into free lists; the old generation is never
      compacted, so a fragmentation factor grows with every sweep.

    When a promotion or large allocation cannot be satisfied while a
    cycle is running — or fragmentation eats the nominally free space —
    CMS suffers a {e concurrent mode failure} and falls back to a
    {b single-threaded} full mark-compact, the multi-second pause the
    paper observes on the saturated server. *)

val create : Gc_ctx.t -> Gc_config.t -> Collector.t
