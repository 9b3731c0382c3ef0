(** JournalRC: mo-gc-style journaled reference counting (beyond the
    paper).

    Mutators pay a flat journaling tax and append reference-count
    deltas to a {!Journal}; a concurrent collector thread folds them
    into the count column, whose simulated rate scales with
    [journal_fold_jobs].  Reclamation happens at a sub-millisecond fold
    flip, and a concurrent backup trace at high occupancy collects
    cyclic garbage. *)

val create : Gc_ctx.t -> Gc_config.t -> Collector.t
