module Vec = Gcperf_util.Int_vec
module Machine = Gcperf_machine.Machine
module Gc_event = Gcperf_sim.Gc_event
module Os = Gcperf_heap.Obj_store
module Gh = Gcperf_heap.Gen_heap
module Span = Gcperf_telemetry.Span

type phase =
  | Idle
  | Marking of { mutable remaining_bytes : float }
  | Sweeping of {
      total_bytes : float;  (* sweep work fixed at remark time *)
      mutable remaining_bytes : float;
      victims : Vec.t;  (* old ids condemned at remark *)
      mutable cursor : int;  (* victims already freed *)
      mutable garbage_bytes : int;
    }

type state = {
  mutable phase : phase;
  mutable fragmentation : float;  (* fraction of old free space unusable *)
}

let name = "ConcMarkSweepGC"

(* -XX:CMSInitiatingOccupancyFraction=70: old-generation occupancy that
   starts a concurrent cycle. *)
let initiating_occupancy = 0.70

let create ctx (config : Gc_config.t) =
  let m = ctx.Gc_ctx.machine in
  let cost = m.Machine.cost in
  let store = Os.create () in
  let heap =
    Gh.create store ~heap_bytes:config.Gc_config.heap_bytes
      ~young_bytes:config.Gc_config.young_bytes
      ~survivor_ratio:config.Gc_config.survivor_ratio
      ~tenuring_threshold:config.Gc_config.tenuring_threshold ()
  in
  let st = { phase = Idle; fragmentation = 0.0 } in
  let usable_old_free () =
    let free = Gh.old_free heap in
    int_of_float (float_of_int free *. (1.0 -. st.fragmentation))
  in
  let params =
    {
      Gen_algo.workers = m.Machine.gc_threads;
      promote_rate = cost.Machine.promote_freelist_rate;
      usable_old_free;
    }
  in
  (* The CMS fallback full collection is single threaded: this is what
     turns a concurrent mode failure into a multi-second (or, on a 64 GB
     heap, multi-minute) pause. *)
  let full reason =
    ignore (Gen_algo.collect_full ctx heap ~workers:1 ~collector:name ~reason);
    st.fragmentation <- 0.0;
    st.phase <- Idle
  in
  let concurrent_mode_failure () = full "concurrent mode failure" in
  let initial_mark () =
    let phases =
      [
        (Span.Safepoint, Gc_ctx.stw_begin_us ctx);
        ( Span.Root_scan,
          Machine.root_scan_us m ~mutator_threads:ctx.Gc_ctx.mutator_threads );
        (Span.Fixed, cost.Machine.gc_fixed_us);
        ( Span.Card_scan,
          Machine.phase_us m ~rate:cost.Machine.card_scan_rate
            ~workers:m.Machine.gc_threads ~bytes:(Gh.young_used heap) );
      ]
    in
    let duration = List.fold_left (fun acc (_, us) -> acc +. us) 0.0 phases in
    let young = Gh.young_used heap and old = heap.Gh.old_used in
    Gc_ctx.record_pause ctx ~collector:name ~kind:Gc_event.Initial_mark
      ~reason:"occupancy threshold"
      ~phases:(fun () -> phases)
      ~duration_us:duration
      ~young_before:young ~young_after:young ~old_before:old ~old_after:old
      ~promoted:0;
    st.phase <- Marking { remaining_bytes = float_of_int heap.Gh.old_used }
  in
  let victims_scratch = Vec.create () in
  let remark () =
    (* The real trace happens here: live objects get marked, and every old
       object left unmarked is condemned for the concurrent sweep.  The
       victims vector is reused across cycles (only one sweep runs at a
       time), and mark stamps go stale on their own at the next trace. *)
    ignore (Gen_algo.trace_all ctx heap);
    let victims = victims_scratch in
    Vec.clear victims;
    let garbage = ref 0 in
    Vec.iter
      (fun id ->
        if Os.is_old store id && not (Os.is_marked store id) then begin
          Vec.push victims id;
          garbage := !garbage + Os.size store id
        end)
      heap.Gh.old_ids;
    let card_bytes = Gh.dirty_live_bytes heap in
    let phases =
      [
        (Span.Safepoint, Gc_ctx.stw_begin_us ctx);
        ( Span.Root_scan,
          Machine.root_scan_us m ~mutator_threads:ctx.Gc_ctx.mutator_threads );
        (Span.Fixed, cost.Machine.gc_fixed_us);
        ( Span.Card_scan,
          Machine.phase_us m ~rate:cost.Machine.card_scan_rate
            ~workers:m.Machine.gc_threads
            ~bytes:(card_bytes + Gh.young_used heap) );
        (* Residual marking of objects dirtied during the concurrent phase:
           a slice of the old generation must be retraced at the safepoint. *)
        ( Span.Mark,
          Machine.phase_us m ~rate:cost.Machine.mark_rate
            ~workers:m.Machine.gc_threads
            ~bytes:(heap.Gh.old_used / 12) );
      ]
    in
    let duration = List.fold_left (fun acc (_, us) -> acc +. us) 0.0 phases in
    let young = Gh.young_used heap and old = heap.Gh.old_used in
    Gc_ctx.record_pause ctx ~collector:name ~kind:Gc_event.Remark
      ~reason:"concurrent cycle"
      ~phases:(fun () -> phases)
      ~duration_us:duration
      ~young_before:young ~young_after:young ~old_before:old ~old_after:old
      ~promoted:0;
    st.phase <-
      Sweeping
        {
          total_bytes = float_of_int (max 1 heap.Gh.old_used);
          remaining_bytes = float_of_int heap.Gh.old_used;
          victims;
          cursor = 0;
          garbage_bytes = !garbage;
        }
  in
  let finish_sweep (victims : Vec.t) cursor garbage_bytes =
    (* Free whatever the incremental sweep has not yet released. *)
    for i = cursor to Vec.length victims - 1 do
      let id = Vec.get victims i in
      if Os.is_old store id then begin
        heap.Gh.old_used <- heap.Gh.old_used - Os.size store id;
        Os.free store id
      end
    done;
    Gh.compact_registries heap;
    (* Sweeping into free lists leaves holes: a slice of the reclaimed
       space is unusable until a compacting full collection. *)
    let garbage_ratio =
      float_of_int garbage_bytes /. float_of_int (max 1 heap.Gh.old_cap)
    in
    st.fragmentation <-
      Float.min 0.45 (st.fragmentation +. 0.02 +. (0.06 *. garbage_ratio));
    st.phase <- Idle
  in
  let maybe_start_cycle () =
    match st.phase with
    | Idle ->
        let occupancy =
          float_of_int heap.Gh.old_used /. float_of_int (max 1 heap.Gh.old_cap)
        in
        if occupancy > initiating_occupancy then
          initial_mark ()
    | Marking _ | Sweeping _ -> ()
  in
  let minor reason =
    (match Gen_algo.collect_young ctx heap ~params ~collector:name ~reason with
    | _outcome -> ()
    | exception Gen_algo.Promotion_failure -> concurrent_mode_failure ());
    maybe_start_cycle ()
  in
  let alloc ~size =
    (* [eden_cap] is read per allocation: the adaptive sizing policy can
       move it between safepoints. *)
    if size > heap.Gh.eden_cap then begin
      match Gh.alloc_old_direct heap ~size with
      | Some id ->
          maybe_start_cycle ();
          id
      | None -> (
          concurrent_mode_failure ();
          match Gh.alloc_old_direct heap ~size with
          | Some id -> id
          | None ->
              raise
                (Gc_ctx.Out_of_memory
                   (Printf.sprintf "%s: cannot fit %d-byte object" name size)))
    end
    else begin
      let id = Gh.alloc_eden_id heap ~size in
      if id >= 0 then id
      else begin
        minor "allocation failure";
        match Gh.alloc_eden heap ~size with
        | Some id -> id
        | None -> (
            full "allocation failure";
            match Gh.alloc_eden heap ~size with
            | Some id -> id
            | None ->
                raise
                  (Gc_ctx.Out_of_memory
                     (Printf.sprintf "%s: heap exhausted allocating %d bytes"
                        name size)))
      end
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
        if mk.remaining_bytes <= 0.0 then remark ()
    | Sweeping sw ->
        let rate =
          cost.Machine.sweep_rate
          *. Machine.parallel_speedup m m.Machine.conc_gc_threads
        in
        sw.remaining_bytes <- sw.remaining_bytes -. (rate *. dt_us);
        (* Release condemned objects in proportion to sweep progress so
           promotions can reuse the space while the sweep runs. *)
        let total = Vec.length sw.victims in
        let progress = 1.0 -. (sw.remaining_bytes /. sw.total_bytes) in
        let target =
          int_of_float (Float.max 0.0 (progress *. float_of_int total))
        in
        let target = min target total in
        while sw.cursor < target do
          let id = Vec.get sw.victims sw.cursor in
          if Os.is_old store id then begin
            heap.Gh.old_used <- heap.Gh.old_used - Os.size store id;
            Os.free store id
          end;
          sw.cursor <- sw.cursor + 1
        done;
        if sw.remaining_bytes <= 0.0 then
          finish_sweep sw.victims sw.cursor sw.garbage_bytes
  in
  let mutator_factor () =
    match st.phase with
    | Idle -> 1.0
    | Marking _ | Sweeping _ ->
        let cores = float_of_int (Machine.cores m) in
        let stolen = float_of_int m.Machine.conc_gc_threads in
        cores /. Float.max 1.0 (cores -. stolen)
  in
  (* CMS taxes the mutator only by stealing cores: no read/write barrier
     cost beyond the card marks already folded into the pause model. *)
  let mutator_tax () = (1.0, mutator_factor ()) in
  let alloc_old ~size =
    match Gh.alloc_old_direct heap ~size with
    | Some id ->
        maybe_start_cycle ();
        id
    | None -> (
        concurrent_mode_failure ();
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
    kind = Gc_config.Cms;
    alloc;
    alloc_old;
    system_gc = (fun () -> full "system.gc");
    tick;
    mutator_factor;
    mutator_tax;
    write_ref = (fun ~parent ~child -> Gh.record_store heap ~parent ~child);
    remove_ref = (fun ~parent ~child -> Gh.remove_store heap ~parent ~child);
    heap_used = (fun () -> Gh.heap_used heap);
    heap_capacity = (fun () -> heap.Gh.heap_bytes);
    young_used = (fun () -> Gh.young_used heap);
    old_used = (fun () -> heap.Gh.old_used);
    apply_policy = Policy_hooks.gen_heap_hook ctx heap ~collector:name;
    store;
    check_invariants = (fun () -> Gh.check_invariants heap);
  }
