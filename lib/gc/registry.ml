(* Enabling TLABs strands the unused tail of each buffer at refill time:
   ~1.5% of the young generation is lost to this waste, which is how the
   TLAB can occasionally *hurt* (an extra collection squeezes in). *)
let tlab_waste config =
  if config.Gc_config.tlab then
    {
      config with
      Gc_config.young_bytes = config.Gc_config.young_bytes * 985 / 1000;
    }
  else config

let create ctx config =
  let config = tlab_waste config in
  (* Ergonomics: attach the adaptive sizing policy before the collector
     is built, seeded with the post-TLAB-waste young size the heap will
     actually start from.  With [adaptive = false] the context keeps
     [policy = None] and every hook below is a single dead branch. *)
  if config.Gc_config.adaptive then
    ctx.Gc_ctx.policy <-
      Some
        (Gcperf_policy.Adaptive_size_policy.create
           (Gcperf_policy.Adaptive_size_policy.default_config
              ~heap_bytes:config.Gc_config.heap_bytes
              ~young_bytes:config.Gc_config.young_bytes
              ~survivor_ratio:config.Gc_config.survivor_ratio
              ~tenuring_threshold:config.Gc_config.tenuring_threshold
              ~pause_goal_ms:config.Gc_config.pause_goal_ms
              ~gc_time_ratio:config.Gc_config.gc_time_ratio ()));
  match config.Gc_config.kind with
  | Gc_config.Serial | Gc_config.ParNew | Gc_config.Parallel
  | Gc_config.ParallelOld ->
      Gc_stw.create ctx config
  | Gc_config.Cms -> Gc_cms.create ctx config
  | Gc_config.G1 -> Gc_g1.create ctx config
  | Gc_config.Concurrent_regions -> Gc_regions.create ctx config
  | Gc_config.Journal_rc -> Gc_journal_rc.create ctx config

let create_named ctx name (config : Gc_config.t) =
  match Gc_config.kind_of_string name with
  | None -> None
  | Some kind -> Some (create ctx { config with Gc_config.kind })
