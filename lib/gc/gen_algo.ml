module Vec = Gcperf_util.Int_vec
module Machine = Gcperf_machine.Machine
module Gc_event = Gcperf_sim.Gc_event
module Os = Gcperf_heap.Obj_store
module Gh = Gcperf_heap.Gen_heap

type young_params = {
  workers : int;
  promote_rate : float;
  usable_old_free : unit -> int;
}

exception Promotion_failure

(* Trace the young reachable set: roots are the mutator roots plus the
   children of remembered-set old objects.  Only young objects are
   traversed; anything old is treated as live (standard generational
   conservatism).  Marks are epoch stamps (no clearing pass) and the
   returned vector is the heap's scratch mark list, valid until the next
   trace. *)
let trace_young ctx (heap : Gh.t) =
  let store = heap.Gh.store in
  let marked = heap.Gh.mark_list and stack = heap.Gh.trace_stack in
  Vec.clear marked;
  Vec.clear stack;
  Os.begin_trace store;
  let card_bytes = ref 0 in
  let push id =
    if Os.is_young store id && not (Os.is_marked store id) then begin
      Os.mark store id;
      Vec.push marked id;
      Vec.push stack id
    end
  in
  ctx.Gc_ctx.iter_roots push;
  Gh.iter_dirty heap (fun p ->
      card_bytes := !card_bytes + Os.size store p;
      Os.iter_refs store p push);
  Os.sequential_finish store ~pred:Os.Trace_young ~marked ~stack;
  (marked, !card_bytes)

let collect_young ctx (heap : Gh.t) ~params ~collector ~reason =
  let store = heap.Gh.store in
  let young_before = Gh.young_used heap and old_before = heap.Gh.old_used in
  let marked, card_bytes = trace_young ctx heap in
  (* Adaptive tenuring (HotSpot's TargetSurvivorRatio): pick the largest
     threshold such that the survivors younger than it fit in half the
     survivor space.  This smooths promotion instead of letting several
     generations of survivors pile up and promote in one huge burst. *)
  let max_age = heap.Gh.tenuring_threshold in
  if Array.length heap.Gh.age_bytes <= max_age then
    heap.Gh.age_bytes <- Array.make (max_age + 1) 0
  else Array.fill heap.Gh.age_bytes 0 (Array.length heap.Gh.age_bytes) 0;
  let bytes_by_age = heap.Gh.age_bytes in
  (* Indexed loops over the mark list (here and in the placement and plan
     passes): one indirect call per survivor per pass adds up on
     collection-heavy runs. *)
  let n_marked = Vec.length marked in
  for i = 0 to n_marked - 1 do
    let id = Vec.unsafe_get marked i in
    let age = Int.min max_age (Os.age store id + 1) in
    bytes_by_age.(age) <- bytes_by_age.(age) + Os.size store id
  done;
  let target = heap.Gh.survivor_cap / 2 in
  let effective_threshold =
    let rec scan age acc =
      if age > max_age then max_age
      else begin
        let acc = acc + bytes_by_age.(age) in
        if acc > target then age else scan (age + 1) acc
      end
    in
    Int.max 1 (Int.min max_age (scan 1 0))
  in
  (* Placement: survivors young enough (and fitting the to-space) stay in
     the survivor space; the rest is promoted.  HotSpot promotes on both
     tenuring age and survivor-space overflow. *)
  let to_survivor = ref 0 and to_promote = ref 0 in
  let promote = heap.Gh.promote_scratch and keep = heap.Gh.keep_scratch in
  Vec.clear promote;
  Vec.clear keep;
  for i = 0 to n_marked - 1 do
    let id = Vec.unsafe_get marked i in
    let size = Os.size store id in
    let new_age = Os.age store id + 1 in
    if
      new_age >= effective_threshold
      || !to_survivor + size > heap.Gh.survivor_cap
    then begin
      (* Promoted before reaching the threshold: the survivor space
         could not hold it.  The ergonomics policy reads this as
         survivor pressure. *)
      if new_age < effective_threshold then
        ctx.Gc_ctx.survivor_overflow <- true;
      to_promote := !to_promote + size;
      Vec.push promote id
    end
    else begin
      to_survivor := !to_survivor + size;
      Vec.push keep id
    end
  done;
  if !to_promote > params.usable_old_free () then raise Promotion_failure;
  (* Plan the relocation: destinations were decided above in trace order,
     so record them (and the registry/accounting side effects, which are
     inherently ordered) sequentially; the column writes themselves are
     the move phase, applied by the kernel in one pass.  The promoted
     and dead sets are disjoint (marked vs unmarked), so moving before
     the sweep frees the same objects in the same [young_ids] order as
     sweeping first would — and the sweep doubles as the young registry
     compaction: one pass frees the unmarked, drops the promoted (now
     old) and keeps the survivors. *)
  Os.plan_clear store;
  let n_promote = Vec.length promote in
  for i = 0 to n_promote - 1 do
    let id = Vec.unsafe_get promote i in
    Os.plan_push_old store id ~age:(Os.age store id + 1);
    heap.Gh.old_used <- heap.Gh.old_used + Os.size store id;
    Vec.push heap.Gh.old_ids id
  done;
  let n_keep = Vec.length keep in
  for i = 0 to n_keep - 1 do
    let id = Vec.unsafe_get keep i in
    Os.plan_push_survivor store id ~age:(Os.age store id + 1)
  done;
  let moved = Os.finish_relocate store in
  ignore (Os.sweep_young_registry store heap.Gh.young_ids);
  heap.Gh.eden_used <- 0;
  heap.Gh.survivor_used <- !to_survivor;
  heap.Gh.promoted_bytes <- heap.Gh.promoted_bytes + !to_promote;
  Gh.compact_old_ids heap;
  (* Remembered-set maintenance: previously-dirty old objects stay dirty
     only if they still reference young data; freshly promoted objects may
     now be old-with-young-refs.  Nothing else can have changed. *)
  Gh.refresh_cards heap ~extra:promote;
  let m = ctx.Gc_ctx.machine and log = ctx.Gc_ctx.events in
  Gc_ctx.open_pause ctx ~fixed_us:m.Machine.cost.Machine.gc_fixed_us;
  Gc_event.phase log Gc_event.Card_scan
    (Machine.phase_us m ~rate:m.Machine.cost.Machine.card_scan_rate
       ~workers:params.workers ~bytes:card_bytes);
  let copy_us =
    Machine.phase_us m ~rate:m.Machine.cost.Machine.copy_rate
      ~workers:params.workers ~bytes:!to_survivor
  in
  let promote_us =
    let promote_rate =
      (* Promotion degrades as the old generation grows: allocation
         lands in cold, NUMA-remote memory and every promoted object
         updates card metadata spread over the whole old space. *)
      params.promote_rate
      /. Float.min 2.5
           (1.0
           +. (float_of_int old_before /. m.Machine.cost.Machine.locality_bytes)
           )
    in
    Machine.phase_us m ~rate:promote_rate ~workers:params.workers
      ~bytes:!to_promote
  in
  Gc_event.phase log Gc_event.Copy copy_us;
  Gc_event.phase log Gc_event.Promote promote_us;
  if moved > 0 then Gc_ctx.relocation ctx (copy_us +. promote_us);
  Gc_ctx.record_pause ctx ~collector ~kind:Gc_event.Young ~reason
    ~young_before ~young_after:(Gh.young_used heap) ~old_before
    ~old_after:heap.Gh.old_used ~promoted:!to_promote

let collect_full ctx (heap : Gh.t) ~workers ~collector ~reason =
  let store = heap.Gh.store in
  let young_before = Gh.young_used heap and old_before = heap.Gh.old_used in
  let marked = heap.Gh.mark_list in
  Gc_ctx.trace_all ctx store ~marked ~stack:heap.Gh.trace_stack;
  (* Direct indexed loops over the mark list here and below: these passes
     run inside every pause, and an indirect closure call per marked
     object is measurable on collection-bound workloads. *)
  let n_marked = Vec.length marked in
  let live_young = ref 0 and live_old = ref 0 in
  for i = 0 to n_marked - 1 do
    let id = Vec.unsafe_get marked i in
    if Os.is_young store id then live_young := !live_young + Os.size store id
    else live_old := !live_old + Os.size store id
  done;
  let live = !live_young + !live_old in
  if live > heap.Gh.heap_bytes then
    raise
      (Gc_ctx.Out_of_memory
         (Printf.sprintf "%s: live data (%d) exceeds heap (%d)" collector live
            heap.Gh.heap_bytes));
  (* Sweep: free everything unmarked, in both generations. *)
  let freed = ref (Os.sweep_dead store heap.Gh.young_ids) in
  freed := !freed + Os.sweep_dead store heap.Gh.old_ids;
  (* Compact: evacuate live young objects into the old generation while it
     has room; overflow stays in eden (to be dealt with by the next minor
     collection).  Survivor space empties.  Placement decisions (fit
     checks, registry pushes) run sequentially in trace order; the column
     writes are deferred to the relocation kernel. *)
  let promoted = ref 0 in
  let eden_left = ref 0 in
  let old_used = ref !live_old in
  Os.plan_clear store;
  for i = 0 to n_marked - 1 do
    let id = Vec.unsafe_get marked i in
    if Os.is_young store id then begin
      let size = Os.size store id in
      if !old_used + size <= heap.Gh.old_cap then begin
        Os.plan_push_old store id ~age:(Os.age store id);
        old_used := !old_used + size;
        promoted := !promoted + size;
        Vec.push heap.Gh.old_ids id
      end
      else begin
        Os.plan_push_eden store id ~age:(Os.age store id);
        eden_left := !eden_left + size
      end
    end
  done;
  let moved = Os.finish_relocate store in
  heap.Gh.eden_used <- !eden_left;
  heap.Gh.survivor_used <- 0;
  heap.Gh.old_used <- !old_used;
  heap.Gh.promoted_bytes <- heap.Gh.promoted_bytes + !promoted;
  (* Deaths leave stale registry entries and promotions leave young_ids
     entries now pointing at old objects; when neither happened the
     registries are already exact and the filter passes can be skipped
     (the common System.gc-on-an-idle-heap case). *)
  if !freed > 0 || !promoted > 0 then Gh.compact_registries heap;
  (* A full collection reshapes the whole old generation, so the
     remembered set is re-derived from the old registry (a post-pass over
     data the collection already walked, unlike the per-write cost the
     incremental young-collection refresh avoids). *)
  Gh.rebuild_cards heap;
  let m = ctx.Gc_ctx.machine and log = ctx.Gc_ctx.events in
  Gc_ctx.open_pause ctx ~fixed_us:m.Machine.cost.Machine.gc_fixed_us;
  Gc_event.phase log Gc_event.Mark
    (Machine.phase_us m ~rate:m.Machine.cost.Machine.mark_rate ~workers
       ~bytes:live);
  Gc_event.phase log Gc_event.Sweep
    (Machine.phase_us m ~rate:m.Machine.cost.Machine.sweep_rate ~workers
       ~bytes:!freed);
  (* Sliding compaction touches the whole occupied old space, dead data
     included: this is why a full collection of a nearly full 64 GB heap
     takes minutes even with live data far smaller. *)
  let compact_us =
    Machine.phase_us m ~rate:m.Machine.cost.Machine.compact_rate ~workers
      ~bytes:(Int.max old_before (!live_old + !promoted))
  in
  Gc_event.phase log Gc_event.Compact compact_us;
  if moved > 0 then Gc_ctx.relocation ctx compact_us;
  Gc_ctx.record_pause ctx ~collector ~kind:Gc_event.Full ~reason
    ~young_before ~young_after:(Gh.young_used heap) ~old_before
    ~old_after:heap.Gh.old_used ~promoted:!promoted
