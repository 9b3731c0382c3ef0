module Machine = Gcperf_machine.Machine
module Os = Gcperf_heap.Obj_store
module Gh = Gcperf_heap.Gen_heap

type plan = {
  young_workers : int;
  full_workers : int;
  promote_rate : float;  (* bump-pointer vs free-list promotion *)
}

let plan_of (ctx : Gc_ctx.t) (kind : Gc_config.kind) =
  let m = ctx.Gc_ctx.machine in
  let cost = m.Machine.cost in
  match kind with
  | Gc_config.Serial ->
      { young_workers = 1; full_workers = 1; promote_rate = cost.Machine.promote_rate }
  | Gc_config.ParNew ->
      (* ParNew's young collector is built to feed a CMS-style free-list
         old generation, which makes its promotions slower per byte. *)
      {
        young_workers = m.Machine.gc_threads;
        full_workers = 1;
        promote_rate = cost.Machine.promote_freelist_rate;
      }
  | Gc_config.Parallel ->
      {
        young_workers = m.Machine.gc_threads;
        full_workers = 1;
        promote_rate = cost.Machine.promote_rate;
      }
  | Gc_config.ParallelOld ->
      {
        young_workers = m.Machine.gc_threads;
        full_workers = m.Machine.gc_threads;
        promote_rate = cost.Machine.promote_rate;
      }
  | Gc_config.Cms | Gc_config.G1 | Gc_config.Concurrent_regions
  | Gc_config.Journal_rc ->
      invalid_arg "Gc_stw.create: not a stop-the-world collector"

let create ctx (config : Gc_config.t) =
  let plan = plan_of ctx config.Gc_config.kind in
  let name = Gc_config.kind_to_string config.Gc_config.kind in
  let store = Os.create () in
  let heap =
    Gh.create store ~heap_bytes:config.Gc_config.heap_bytes
      ~young_bytes:config.Gc_config.young_bytes
      ~survivor_ratio:config.Gc_config.survivor_ratio
      ~tenuring_threshold:config.Gc_config.tenuring_threshold ()
  in
  let params =
    {
      Gen_algo.workers = plan.young_workers;
      promote_rate = plan.promote_rate;
      usable_old_free = (fun () -> Gh.old_free heap);
    }
  in
  let full reason =
    Gen_algo.collect_full ctx heap ~workers:plan.full_workers ~collector:name
      ~reason
  in
  let minor reason =
    match Gen_algo.collect_young ctx heap ~params ~collector:name ~reason with
    | () -> ()
    | exception Gen_algo.Promotion_failure -> full "promotion failure"
  in
  (* Eden-full handling, out of line: the eden fast path in [alloc] is
     the hottest call in the simulator, and keeping the recovery paths in
     a separate function keeps it branch-lean. *)
  let alloc_slow ~size =
    (* Objects too large for eden go straight to the old generation, as
       HotSpot does for very large allocations.  [eden_cap] is read only
       after the fast path fails: an over-eden-capacity request can never
       fit eden, so the fast [alloc_eden_id] attempt refuses it with no
       side effects and the check is equivalent to testing it first.
       ([eden_cap] itself can move between safepoints under the adaptive
       sizing policy, which is why it is read per failure, not cached.) *)
    if size > heap.Gh.eden_cap then begin
      match Gh.alloc_old_direct heap ~size with
      | Some id -> id
      | None ->
          full "allocation failure (large object)";
          (match Gh.alloc_old_direct heap ~size with
          | Some id -> id
          | None ->
              raise
                (Gc_ctx.Out_of_memory
                   (Printf.sprintf "%s: cannot fit %d-byte object" name size)))
    end
    else begin
      minor "allocation failure";
      match Gh.alloc_eden heap ~size with
      | Some id -> id
      | None -> (
          (* Eden still full after a young collection: survivors (or
             full-GC overflow) crowd it.  One full collection, then
             either eden or the old generation must take the object. *)
          full "allocation failure";
          match Gh.alloc_eden heap ~size with
          | Some id -> id
          | None -> (
              match Gh.alloc_old_direct heap ~size with
              | Some id -> id
              | None ->
                  raise
                    (Gc_ctx.Out_of_memory
                       (Printf.sprintf "%s: heap exhausted allocating %d bytes"
                          name size))))
    end
  in
  let alloc ~size =
    let id = Gh.alloc_eden_id heap ~size in
    if id >= 0 then id else alloc_slow ~size
  in
  let alloc_old ~size =
    match Gh.alloc_old_direct heap ~size with
    | Some id -> id
    | None -> (
        full "allocation failure (tenured)";
        match Gh.alloc_old_direct heap ~size with
        | Some id -> id
        | None ->
            raise
              (Gc_ctx.Out_of_memory
                 (Printf.sprintf "%s: old generation exhausted (%d bytes)" name
                    size)))
  in
  Policy_hooks.install_gen_capacity ctx heap;
  {
    Collector.name;
    kind = config.Gc_config.kind;
    alloc;
    alloc_old;
    system_gc = (fun () -> full "system.gc");
    tick = (fun ~dt_us:_ -> ());
    mutator_factor = (fun () -> 1.0);
    mutator_tax = (fun () -> (1.0, 1.0));
    write_ref = (fun ~parent ~child -> Gh.record_store heap ~parent ~child);
    remove_ref = (fun ~parent ~child -> Gh.remove_store heap ~parent ~child);
    heap_used = (fun () -> Gh.heap_used heap);
    heap_capacity = (fun () -> heap.Gh.heap_bytes);
    young_used = (fun () -> Gh.young_used heap);
    old_used = (fun () -> heap.Gh.old_used);
    apply_policy = Policy_hooks.gen_heap_hook ctx heap;
    store;
    check_invariants = (fun () -> Gh.check_invariants heap);
  }
