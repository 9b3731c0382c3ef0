module Vec = Gcperf_util.Int_vec
module Machine = Gcperf_machine.Machine
module Gc_event = Gcperf_sim.Gc_event
module Os = Gcperf_heap.Obj_store
module Rh = Gcperf_heap.Region_heap

type phase = Idle | Marking of { mutable remaining_bytes : float }

type state = {
  mutable phase : phase;
  mutable marking_allowed : bool;
      (* one concurrent cycle per young collection: prevents back-to-back
         cycles when occupancy stays above the threshold *)
  mutable mixed_candidates : int list;  (* region indices, most garbage first *)
  mutable eden_bytes : int;  (* bytes allocated young since last collection *)
}

let name = "G1GC"

(* -XX:InitiatingHeapOccupancyPercent=45, as a fraction of the heap. *)
let ihop = 0.45

(* Per-region constant work in an evacuation pause (choosing the
   collection set, swapping region roles, updating free lists). *)
let region_fixed_us = 120.0

let create_in ctx (config : Gc_config.t) (rheap : Rh.t) =
  let m = ctx.Gc_ctx.machine in
  let log = ctx.Gc_ctx.events in
  let cost = m.Machine.cost in
  let store = rheap.Rh.store in
  rheap.Rh.young_target_bytes <-
    Int.max rheap.Rh.region_size config.Gc_config.young_bytes;
  (* Mutable so the adaptive sizing policy can promote earlier/later. *)
  let tenuring = ref config.Gc_config.tenuring_threshold in
  let st =
    {
      phase = Idle;
      marking_allowed = true;
      mixed_candidates = [];
      eden_bytes = 0;
    }
  in
  let old_hum_used () = Rh.used_old_hum rheap in
  let young_used () = Rh.used_young rheap in
  (* Per-collection scratch, hoisted so steady-state evacuation pauses
     allocate nothing in the host runtime.  Contents are only valid within
     one collection.  The collection-set trace keeps its own mark scratch,
     apart from the region heap's full-trace scratch, because an
     evacuation failure runs a full trace while the collection-set trace
     results are still in scope. *)
  let cs_marked = Vec.create () and cs_stack = Vec.create () in
  let ext_src = Vec.create () and ext_child = Vec.create () in
  let stale_scratch = Vec.create () in
  let surv_scratch = Vec.create () and prom_scratch = Vec.create () in
  let cset_scratch = Vec.create () in
  let collected_scratch = ref [||] in
  (* Partial trace of the collection set: roots plus remembered sets.
     Dead or irrelevant remset entries are pruned as they are scanned,
     which is exactly the work a G1 evacuation pause pays for.  External
     (source, child) pairs land in the parallel ext_src/ext_child scratch
     vectors. *)
  let trace_collection_set collected =
    let marked = cs_marked and stack = cs_stack in
    Vec.clear marked;
    Vec.clear stack;
    Vec.clear ext_src;
    Vec.clear ext_child;
    Os.begin_trace store;
    let remset_bytes = ref 0 in
    let push id =
      let r = Os.region_index store id in
      if r >= 0 && collected.(r) && not (Os.is_marked store id) then begin
        Os.mark store id;
        Vec.push marked id;
        Vec.push stack id
      end
    in
    ctx.Gc_ctx.iter_roots push;
    Array.iter
      (fun r ->
        if collected.(r.Rh.idx) then begin
          let stale = stale_scratch in
          Vec.clear stale;
          Hashtbl.iter
            (fun src () ->
              let sr = Os.region_index store src in
              if sr < 0 then Vec.push stale src
              else if collected.(sr) then
                (* The source is itself being collected: if it is
                   live the trace reaches it; if dead, its references
                   die with it.  Either way the entry is obsolete. *)
                Vec.push stale src
              else begin
                remset_bytes := !remset_bytes + Os.size store src;
                let relevant = ref false in
                Os.iter_refs store src (fun child ->
                    if Os.in_region store child r.Rh.idx then begin
                      relevant := true;
                      Vec.push ext_src src;
                      Vec.push ext_child child;
                      push child
                    end);
                if not !relevant then Vec.push stale src
              end)
            r.Rh.remset;
          Vec.iter (fun s -> Hashtbl.remove r.Rh.remset s) stale
        end)
      rheap.Rh.regions;
    Os.sequential_finish store ~pred:(Os.Trace_regions collected) ~marked
      ~stack;
    (marked, !remset_bytes)
  in
  let record ~kind ~reason ~young_before ~old_before ~promoted =
    Gc_ctx.record_pause ctx ~collector:name ~kind ~reason ~young_before
      ~young_after:(young_used ()) ~old_before ~old_after:(old_hum_used ())
      ~promoted
  in
  let maybe_start_marking () =
    match st.phase with
    | Marking _ -> ()
    | Idle ->
        let occ = float_of_int (old_hum_used ()) in
        if
          st.marking_allowed
          && occ > ihop *. float_of_int rheap.Rh.heap_bytes
        then begin
          st.marking_allowed <- false;
          Gc_ctx.open_pause ctx ~fixed_us:cost.Machine.gc_fixed_us;
          let y = young_used () and o = old_hum_used () in
          record ~kind:Gc_event.Initial_mark ~reason:"IHOP crossed"
            ~young_before:y ~old_before:o ~promoted:0;
          st.phase <-
            Marking { remaining_bytes = float_of_int (old_hum_used ()) }
        end
  in
  let full_gc reason =
    (* JDK8 G1 full collections are single-threaded mark-compact; the
       parallel variant (JDK10+) is available as an ablation switch. *)
    let full_workers =
      if config.Gc_config.g1_parallel_full then m.Machine.gc_threads else 1
    in
    let young_before = young_used () and old_before = old_hum_used () in
    let { Region_algo.live; freed; moved_bytes; moved_objects } =
      Region_algo.mark_compact ctx rheap ~collector:"G1" ~min_age:!tenuring
    in
    (* Rebuild remembered sets exactly: cross-region references only.
       Retiring emptied the eden, survivor and old regions' sets; a live
       humongous region's set still holds sources that died or moved,
       so it restarts empty too. *)
    Array.iter
      (fun r ->
        match r.Rh.kind with
        | Rh.Humongous -> Hashtbl.reset r.Rh.remset
        | Rh.Free | Rh.Eden | Rh.Survivor | Rh.Old_region -> ())
      rheap.Rh.regions;
    Os.iter_live store (fun id ->
        let rp = Os.region_index store id in
        if rp >= 0 then
          Os.iter_refs store id (fun child ->
              let rc = Os.region_index store child in
              if rc >= 0 && rp <> rc then
                Hashtbl.replace rheap.Rh.regions.(rc).Rh.remset id ()));
    st.eden_bytes <- 0;
    st.mixed_candidates <- [];
    st.phase <- Idle;
    Gc_ctx.open_pause ctx ~fixed_us:cost.Machine.gc_fixed_us;
    Gc_event.phase log Gc_event.Mark
      (Machine.phase_us m ~rate:cost.Machine.mark_rate ~workers:full_workers
         ~bytes:live);
    Gc_event.phase log Gc_event.Sweep
      (Machine.phase_us m ~rate:cost.Machine.sweep_rate ~workers:full_workers
         ~bytes:freed);
    (* Region bookkeeping makes G1's serial compaction slower per byte
       than the generational collectors' sliding compaction. *)
    (* Sliding compaction touches the occupied old/humongous space, dead
       data included; evacuated young costs are in [moved]. *)
    let compact_us =
      1.3
      *. Machine.phase_us m ~rate:cost.Machine.compact_rate
           ~workers:full_workers
           ~bytes:(Int.max old_before moved_bytes)
    in
    Gc_event.phase log Gc_event.Compact compact_us;
    if moved_objects > 0 then Gc_ctx.relocation ctx compact_us;
    record ~kind:Gc_event.Full ~reason ~young_before ~old_before ~promoted:0
  in
  let remark_and_cleanup () =
    Gc_ctx.trace_all ctx store ~marked:rheap.Rh.mark_list
      ~stack:rheap.Rh.trace_stack;
    (* Liveness accounting per region. *)
    Array.iter
      (fun r ->
        match r.Rh.kind with
        | Rh.Old_region | Rh.Humongous ->
            Rh.compact_region_objects rheap r;
            let live = ref 0 in
            Vec.iter
              (fun id ->
                if Os.is_marked store id then live := !live + Os.size store id)
              r.Rh.objects;
            r.Rh.live_bytes <- !live
        | Rh.Eden | Rh.Survivor | Rh.Free -> ())
      rheap.Rh.regions;
    let y = young_used () and o = old_hum_used () in
    Gc_ctx.open_pause ctx ~fixed_us:cost.Machine.gc_fixed_us;
    Gc_event.phase log Gc_event.Mark
      (Machine.phase_us m ~rate:cost.Machine.mark_rate
         ~workers:m.Machine.gc_threads
         ~bytes:(old_hum_used () / 12));
    record ~kind:Gc_event.Remark ~reason:"concurrent cycle" ~young_before:y
      ~old_before:o ~promoted:0;
    (* Cleanup: instantly reclaim fully dead regions, pick mixed
       candidates garbage-first. *)
    let released = ref 0 in
    Array.iter
      (fun r ->
        match r.Rh.kind with
        | Rh.Old_region when r.Rh.live_bytes = 0 && r.Rh.used > 0 ->
            Rh.release_region rheap r;
            incr released
        | Rh.Old_region | Rh.Humongous | Rh.Eden | Rh.Survivor | Rh.Free -> ())
      rheap.Rh.regions;
    ignore (Region_algo.release_dead_humongous rheap);
    let candidates =
      Array.to_list rheap.Rh.regions
      |> List.filter (fun r ->
             (match r.Rh.kind with Rh.Old_region -> true | _ -> false)
             && r.Rh.used > 0
             && float_of_int r.Rh.live_bytes
                < 0.95 *. float_of_int r.Rh.used)
      |> List.sort (fun a b ->
             compare
               (float_of_int a.Rh.live_bytes
               /. float_of_int (Int.max 1 a.Rh.used))
               (float_of_int b.Rh.live_bytes
               /. float_of_int (Int.max 1 b.Rh.used)))
      |> List.map (fun r -> r.Rh.idx)
    in
    (* Cap the mixed backlog like HotSpot (G1MixedGCCountTarget spreads
       candidates over ~8 mixed collections, old regions per mixed capped). *)
    st.mixed_candidates <- candidates;
    let y = young_used () and o = old_hum_used () in
    Gc_event.phase log Gc_event.Safepoint (Gc_ctx.stw_begin_us ctx);
    Gc_event.phase log Gc_event.Fixed cost.Machine.gc_fixed_us;
    Gc_event.phase log Gc_event.Region_overhead
      (region_fixed_us *. float_of_int (Int.max 1 !released));
    record ~kind:Gc_event.Cleanup ~reason:"concurrent cycle" ~young_before:y
      ~old_before:o ~promoted:0;
    st.phase <- Idle
  in
  (* The last rung of both humongous allocation ladders. *)
  let humongous_after_full_gc ~size =
    full_gc "humongous allocation failure";
    match Rh.alloc_humongous rheap ~size with
    | Some id -> id
    | None ->
        raise
          (Gc_ctx.Out_of_memory
             (Printf.sprintf "G1: cannot fit humongous %d bytes" size))
  in
  let rec young_gc reason =
    let mixed_now =
      match st.mixed_candidates with
      | [] -> []
      | l ->
          (* HotSpot spreads candidates over several mixed collections and
             bounds the old regions added to a single collection set. *)
          let cap = Int.max 1 (Array.length rheap.Rh.regions / 16) in
          let n = Int.min cap (Int.max 1 (List.length l / 4)) in
          List.filteri (fun i _ -> i < n) l
    in
    if Array.length !collected_scratch <> Array.length rheap.Rh.regions then
      collected_scratch := Array.make (Array.length rheap.Rh.regions) false
    else Array.fill !collected_scratch 0 (Array.length !collected_scratch) false;
    let collected = !collected_scratch in
    let cset = cset_scratch in
    Vec.clear cset;
    Array.iter
      (fun r ->
        if (match r.Rh.kind with Rh.Eden | Rh.Survivor -> true | _ -> false)
        then begin
          collected.(r.Rh.idx) <- true;
          Vec.push cset r.Rh.idx
        end)
      rheap.Rh.regions;
    List.iter
      (fun idx ->
        if
          match rheap.Rh.regions.(idx).Rh.kind with
          | Rh.Old_region -> true
          | _ -> false
        then begin
          collected.(idx) <- true;
          Vec.push cset idx
        end)
      mixed_now;
    let young_before = young_used () and old_before = old_hum_used () in
    let marked, remset_bytes = trace_collection_set collected in
    (* Plan placement: survivors young enough go to survivor regions, the
       rest to old regions.  First-fit bump packing tells us exactly how
       many free regions we need before we touch anything. *)
    let surv = surv_scratch and prom = prom_scratch in
    Vec.clear surv;
    Vec.clear prom;
    let surv_bytes = ref 0 and prom_bytes = ref 0 in
    (* Survivor overflow: G1 sizes survivor space as a slice of the young
       target; anything beyond it is promoted rather than failing the
       evacuation. *)
    let survivor_budget =
      Int.max rheap.Rh.region_size (rheap.Rh.young_target_bytes / 8)
    in
    Vec.iter
      (fun id ->
        let size = Os.size store id in
        let age = Os.age store id in
        if age + 1 >= !tenuring || !surv_bytes + size > survivor_budget
        then begin
          (* Promoted before reaching the threshold: survivor budget
             overflow, the ergonomics policy's survivor-pressure signal. *)
          if age + 1 < !tenuring then ctx.Gc_ctx.survivor_overflow <- true;
          Vec.push prom id;
          prom_bytes := !prom_bytes + size
        end
        else begin
          Vec.push surv id;
          surv_bytes := !surv_bytes + size
        end)
      marked;
    let regions_for v =
      (* bump packing: count regions needed for the exact object sizes *)
      let count = ref 0 and used = ref rheap.Rh.region_size in
      Vec.iter
        (fun id ->
          let s = Os.size store id in
          if !used + s > rheap.Rh.region_size then begin
            incr count;
            used := 0
          end;
          used := !used + s)
        v;
      !count
    in
    let needed = regions_for surv + regions_for prom in
    if needed > Rh.free_regions rheap then full_gc "evacuation failure"
    else begin
      (* Evacuate.  Phase A (plan): first-fit bump packing walks the
         survivor and promotion sets in trace order, keeping the
         region-accounting side effects sequential and recording each
         object's destination region and age.  Every source region is
         read before any location column is written, so deferring the
         writes to the kernel observes exactly the same state the
         in-place loop did. *)
      let plan_all v kind =
        let target = ref None in
        Vec.iter
          (fun id ->
            let size = Os.size store id in
            let src = Rh.region_of rheap id in
            match Region_algo.place rheap target ~kind ~size with
            | Some r ->
                Rh.add_used rheap src (-size);
                (* Mixed collections re-evacuate tenured objects, so ages
                   grow without bound there.  Every decision compares an
                   age with the tenuring threshold (at most 15), so
                   saturating changes none of them. *)
                Os.plan_push_region store id ~region:r.Rh.idx
                  ~age:(Int.min Os.max_age (Os.age store id + 1));
                Rh.add_used rheap r size;
                Vec.push r.Rh.objects id
            | None -> assert false (* pre-counted above *))
          v
      in
      Os.plan_clear store;
      plan_all surv Rh.Survivor;
      plan_all prom Rh.Old_region;
      (* Phase B (move): apply the evacuation in one pass. *)
      let moved_objects = Os.finish_relocate store in
      (* Remembered-set maintenance, kept precise: (a) every external
         source that pointed at a moved object is re-recorded against the
         object's new region (the pairs were captured during the remset
         scan); (b) every moved object is re-recorded as a source for the
         regions its own references point into. *)
      for i = 0 to Vec.length ext_src - 1 do
        let src = Vec.get ext_src i and child = Vec.get ext_child i in
        let rs = Os.region_index store src
        and rc = Os.region_index store child in
        if rs >= 0 && rc >= 0 && rs <> rc then
          Hashtbl.replace rheap.Rh.regions.(rc).Rh.remset src ()
      done;
      let update_moved id =
        let ro = Os.region_index store id in
        if ro >= 0 then
          Os.iter_refs store id (fun child ->
              let rc = Os.region_index store child in
              if rc >= 0 && rc <> ro then
                Hashtbl.replace rheap.Rh.regions.(rc).Rh.remset id ())
      in
      Vec.iter update_moved surv;
      Vec.iter update_moved prom;
      (* Release the collection set (frees the unreached objects), newest
         entry first — the order the previous cons-list gave, kept so free
         slot recycling (hence object ids) stays byte-identical. *)
      for i = Vec.length cset - 1 downto 0 do
        Rh.release_region rheap rheap.Rh.regions.(Vec.get cset i)
      done;
      st.eden_bytes <- 0;
      rheap.Rh.promoted_bytes <- rheap.Rh.promoted_bytes + !prom_bytes;
      let mixed = mixed_now <> [] in
      if mixed then
        st.mixed_candidates <-
          List.filter (fun i -> not (List.mem i mixed_now)) st.mixed_candidates;
      let workers = m.Machine.gc_threads in
      let copy_us =
        Machine.phase_us m ~rate:cost.Machine.copy_rate ~workers
          ~bytes:!surv_bytes
      in
      let promote_us =
        let promote_rate =
          (* As in the generational collectors: promotion into a large
             old space is slower per byte. *)
          cost.Machine.promote_rate
          /. Float.min 2.5
               (1.0 +. (float_of_int old_before /. cost.Machine.locality_bytes))
        in
        Machine.phase_us m ~rate:promote_rate ~workers ~bytes:!prom_bytes
      in
      st.marking_allowed <- true;
      Gc_ctx.open_pause ctx ~fixed_us:cost.Machine.gc_fixed_us;
      Gc_event.phase log Gc_event.Region_overhead
        (region_fixed_us
        *. float_of_int (Vec.length cset)
        /. Machine.parallel_speedup m workers);
      Gc_event.phase log Gc_event.Card_scan
        (Machine.phase_us m ~rate:cost.Machine.card_scan_rate ~workers
           ~bytes:remset_bytes);
      Gc_event.phase log Gc_event.Copy copy_us;
      Gc_event.phase log Gc_event.Promote promote_us;
      if moved_objects > 0 then Gc_ctx.relocation ctx (copy_us +. promote_us);
      record
        ~kind:(if mixed then Gc_event.Mixed else Gc_event.Young)
        ~reason ~young_before ~old_before ~promoted:!prom_bytes;
      maybe_start_marking ()
    end
  and alloc ~size =
    if Rh.is_humongous rheap ~size then begin
      match Rh.alloc_humongous rheap ~size with
      | Some id ->
          maybe_start_marking ();
          id
      | None -> (
          young_gc "humongous allocation";
          match Rh.alloc_humongous rheap ~size with
          | Some id -> id
          | None -> humongous_after_full_gc ~size)
    end
    else begin
      (* G1ReservePercent: keep a slice of the heap free for evacuation;
         collect early rather than risk an evacuation failure. *)
      let reserve = Int.max 4 (Array.length rheap.Rh.regions / 10) in
      if st.eden_bytes + size > rheap.Rh.young_target_bytes then
        young_gc "eden target reached"
      else if
        Rh.free_regions rheap < reserve
        && st.eden_bytes > 4 * rheap.Rh.region_size
      then young_gc "low free regions (reserve)";
      let id =
        match Rh.alloc_young rheap ~size with
        | Some id -> id
        | None -> (
            young_gc "to-space exhausted";
            match Rh.alloc_young rheap ~size with
            | Some id -> id
            | None -> (
                full_gc "allocation failure";
                match Rh.alloc_young rheap ~size with
                | Some id -> id
                | None ->
                    raise
                      (Gc_ctx.Out_of_memory
                         (Printf.sprintf
                            "G1: heap exhausted allocating %d bytes" size))))
      in
      st.eden_bytes <- st.eden_bytes + size;
      id
    end
  in
  let old_alloc_region = ref (-1) in
  (* Claims a fresh old region as the old allocation region and
     allocates in it; [None] when no free region is left. *)
  let old_in_fresh_region ~size =
    match Rh.take_free_region rheap Rh.Old_region with
    | Some r -> (
        old_alloc_region := r.Rh.idx;
        match Rh.alloc_in_region rheap r ~size with
        | Some _ as id -> id
        | None ->
            raise
              (Gc_ctx.Out_of_memory "G1: old allocation larger than a region"))
    | None -> None
  in
  let alloc_old ~size =
    if Rh.is_humongous rheap ~size then begin
      match Rh.alloc_humongous rheap ~size with
      | Some id -> id
      | None -> humongous_after_full_gc ~size
    end
    else begin
      let try_current () =
        if !old_alloc_region < 0 then None
        else begin
          let r = rheap.Rh.regions.(!old_alloc_region) in
          match r.Rh.kind with
          | Rh.Old_region -> Rh.alloc_in_region rheap r ~size
          | _ -> None
        end
      in
      match try_current () with
      | Some id -> id
      | None -> (
          match old_in_fresh_region ~size with
          | Some id -> id
          | None -> (
              full_gc "old allocation failure";
              match old_in_fresh_region ~size with
              | Some id -> id
              | None -> raise (Gc_ctx.Out_of_memory "G1: no free region left")))
    end
  in
  let tick ~dt_us =
    match st.phase with
    | Idle -> ()
    | Marking mk ->
        let rate =
          cost.Machine.mark_rate
          *. Machine.parallel_speedup m m.Machine.conc_gc_threads
        in
        mk.remaining_bytes <- mk.remaining_bytes -. (rate *. dt_us);
        if mk.remaining_bytes <= 0.0 then remark_and_cleanup ()
  in
  let mutator_factor () =
    match st.phase with
    | Idle -> 1.0
    | Marking _ ->
        let cores = float_of_int (Machine.cores m) in
        let stolen = float_of_int m.Machine.conc_gc_threads in
        cores /. Float.max 1.0 (cores -. stolen)
  in
  (* G1's concurrent mark steals cores; its barrier costs live in the
     pause model (refinement folded into card scanning), not here. *)
  let mutator_tax () = (1.0, mutator_factor ()) in
  Policy_hooks.install_region_capacity ctx rheap;
  {
    Collector.name;
    kind = Gc_config.G1;
    alloc;
    alloc_old;
    system_gc = (fun () -> full_gc "system.gc");
    tick;
    mutator_factor;
    mutator_tax;
    write_ref = (fun ~parent ~child -> Rh.record_store rheap ~parent ~child);
    remove_ref = (fun ~parent ~child -> Rh.remove_store rheap ~parent ~child);
    heap_used = (fun () -> Rh.heap_used rheap);
    heap_capacity = (fun () -> rheap.Rh.heap_bytes);
    young_used;
    old_used = old_hum_used;
    apply_policy = Policy_hooks.region_heap_hook ctx rheap ~tenuring;
    store;
    check_invariants = (fun () -> Rh.check_invariants rheap);
  }

let create ctx (config : Gc_config.t) =
  create_in ctx config
    (Rh.create (Os.create ()) ~heap_bytes:config.Gc_config.heap_bytes ())
