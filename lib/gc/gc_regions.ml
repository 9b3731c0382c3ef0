module Vec = Gcperf_util.Int_vec
module Machine = Gcperf_machine.Machine
module Gc_event = Gcperf_sim.Gc_event
module Os = Gcperf_heap.Obj_store
module Rh = Gcperf_heap.Region_heap
module Span = Gcperf_telemetry.Span
module Telemetry = Gcperf_telemetry.Telemetry

(* ZGC/Shenandoah-style single-generation region collector.
   The cycle is: a sub-ms Initial_mark flip (root scan), a concurrent
   mark whose cost is core stealing plus the SATB write-barrier tax, a
   sub-ms Remark flip where the trace and relocation-set selection
   logically happen (the flip is where the simulated heap state
   changes; the *time* for marking was already paid by the ticks — the
   same logically-instantaneous-flip convention CMS and G1 use, which
   is also what makes SATB trivially correct here), a concurrent
   relocation phase behind self-healing load barriers, and a sub-ms
   Cleanup flip that heals whatever forwarding entries the mutators
   never touched.  Mutator reference stores run the load barrier
   ([Os.fwd_read] on both ends); everything else heals at the flip.
   Allocation failure mid-cycle degenerates to a parallel STW
   mark-compact, the analogue of ZGC's allocation stall. *)

type phase =
  | Idle
  | Marking of { mutable remaining_bytes : float }
  | Relocating of { mutable remaining_bytes : float }

type state = { mutable phase : phase }

let name = "ConcurrentRegionsGC"

(* A region joins the relocation set when at least this fraction of it
   is garbage (Shenandoah's garbage-first heuristic). *)
let reloc_garbage_fraction = 0.25

(* Bulk healing at the remap flip: the GC threads sweep the forwarding
   table linearly, far cheaper per entry than a mutator slow path. *)
let flip_heal_us = 0.02

let create ctx (config : Gc_config.t) =
  let m = ctx.Gc_ctx.machine in
  let cost = m.Machine.cost in
  let store = Os.create () in
  let rheap =
    Rh.create store ~heap_bytes:config.Gc_config.heap_bytes ()
  in
  rheap.Rh.young_target_bytes <-
    max rheap.Rh.region_size config.Gc_config.young_bytes;
  let tenuring = ref config.Gc_config.tenuring_threshold in
  let st = { phase = Idle } in
  let young_used () = Rh.used_young rheap in
  let old_hum_used () = Rh.used_old_hum rheap in
  let tel = ctx.Gc_ctx.telemetry in
  (* Trace scratch, hoisted (see gc_g1.ml). *)
  let g_marked = Vec.create () and g_stack = Vec.create () in
  let cset_scratch = Vec.create () in
  let movable = Vec.create () in
  let trace_all () =
    let marked = g_marked and stack = g_stack in
    Vec.clear marked;
    Vec.clear stack;
    Os.begin_trace store;
    let push id =
      if (not (Os.is_nowhere store id)) && not (Os.is_marked store id)
      then begin
        Os.mark store id;
        Vec.push marked id;
        Vec.push stack id
      end
    in
    ctx.Gc_ctx.iter_roots push;
    Os.sequential_finish store ~pred:Os.Trace_live ~marked ~stack;
    marked
  in
  let record ?sub ~kind ~reason ~phases ~duration ~young_before ~old_before
      ~promoted () =
    Gc_ctx.record_pause ?sub ctx ~collector:name ~kind ~reason ~phases
      ~duration_us:duration ~young_before ~young_after:(young_used ())
      ~old_before ~old_after:(old_hum_used ()) ~promoted
  in
  let flip_phases () =
    [
      (Span.Safepoint, Gc_ctx.stw_begin_us ctx);
      ( Span.Root_scan,
        Machine.root_scan_us m ~mutator_threads:ctx.Gc_ctx.mutator_threads );
      (Span.Fixed, cost.Machine.flip_fixed_us);
    ]
  in
  let sum phases = List.fold_left (fun acc (_, us) -> acc +. us) 0.0 phases in
  let start_mark reason =
    let phases = flip_phases () in
    let y = young_used () and o = old_hum_used () in
    record ~kind:Gc_event.Initial_mark ~reason
      ~phases:(fun () -> phases)
      ~duration:(sum phases) ~young_before:y ~old_before:o ~promoted:0 ();
    st.phase <-
      Marking { remaining_bytes = float_of_int (Rh.heap_used rheap) }
  in
  let maybe_start_mark () =
    match st.phase with
    | Marking _ | Relocating _ -> ()
    | Idle ->
        let used = float_of_int (Rh.heap_used rheap) in
        let reserve = max 4 (Array.length rheap.Rh.regions / 20) in
        if used > Gc_g1.ihop *. float_of_int rheap.Rh.heap_bytes
        then start_mark "occupancy threshold crossed"
        else if
          Rh.free_regions rheap < reserve
          && used > 0.0
        then start_mark "low free regions"
  in
  (* Mark flip: run the trace, account per-region liveness, release
     fully-dead regions and dead humongous groups, then pick and
     physically evacuate the relocation set.  The forwarding entries for
     moved objects become visible to mutators as the flip ends. *)
  let mark_flip () =
    ignore (trace_all ());
    let dead_humongous = ref [] in
    Array.iter
      (fun r ->
        match r.Rh.kind with
        | Rh.Eden | Rh.Survivor | Rh.Old_region ->
            Rh.compact_region_objects rheap r;
            let live = ref 0 in
            Vec.iter
              (fun id ->
                if Os.is_marked store id then live := !live + Os.size store id)
              r.Rh.objects;
            r.Rh.live_bytes <- !live
        | Rh.Humongous ->
            if r.Rh.hum_len > 0 then
              Vec.iter
                (fun id ->
                  if not (Os.is_marked store id) then
                    dead_humongous := id :: !dead_humongous)
                r.Rh.objects
        | Rh.Free -> ())
      rheap.Rh.regions;
    List.iter (fun id -> Rh.release_humongous rheap id) !dead_humongous;
    Array.iter
      (fun r ->
        match r.Rh.kind with
        | (Rh.Eden | Rh.Survivor | Rh.Old_region)
          when r.Rh.used > 0 && r.Rh.live_bytes = 0 ->
            Rh.release_region rheap r
        | _ -> ())
      rheap.Rh.regions;
    (* Relocation set: most garbage first, index as tie-break, capped so
       evacuation never outruns the free-region supply.  The qualifying
       bar is pressure-adaptive: at comfortable occupancy only regions at
       least a quarter garbage pay their way (Shenandoah's heuristic),
       but once the free-region supply falls under three start-mark
       reserves the bar drops to a single garbage byte — diffuse garbage
       otherwise strands across regions that never qualify, and
       back-to-back cycles reclaim nothing while the mutator burns the
       remaining headroom into an allocation stall. *)
    let reserve = max 4 (Array.length rheap.Rh.regions / 20) in
    let threshold =
      if Rh.free_regions rheap < 3 * reserve then 1
      else
        int_of_float
          (reloc_garbage_fraction *. float_of_int rheap.Rh.region_size)
    in
    let candidates =
      Array.to_list rheap.Rh.regions
      |> List.filter (fun r ->
             (match r.Rh.kind with
             | Rh.Eden | Rh.Survivor | Rh.Old_region -> true
             | Rh.Humongous | Rh.Free -> false)
             && r.Rh.used > 0
             && r.Rh.used - r.Rh.live_bytes >= threshold)
      |> List.sort (fun a b ->
             let ga = a.Rh.used - a.Rh.live_bytes
             and gb = b.Rh.used - b.Rh.live_bytes in
             if ga <> gb then compare gb ga else compare a.Rh.idx b.Rh.idx)
    in
    let budget_regions = max 0 (Rh.free_regions rheap - 4) in
    let cset = cset_scratch in
    Vec.clear cset;
    let dest_bytes = ref 0 in
    (* Worst-case packed capacity: bump placement opens a fresh region
       whenever an object outgrows the remainder, so each destination
       wastes less than the largest non-humongous object — half a
       region.  Budgeting against that bound keeps the free-region
       supply ahead of the plan even when the pressure-adaptive bar
       admits the whole heap as candidates. *)
    let half = max 1 (rheap.Rh.region_size / 2) in
    List.iter
      (fun r ->
        let need = (!dest_bytes + r.Rh.live_bytes + half - 1) / half in
        if need <= budget_regions then begin
          Vec.push cset r.Rh.idx;
          dest_bytes := !dest_bytes + r.Rh.live_bytes
        end)
      candidates;
    (* Evacuate: sequential plan (region accounting), slab-parallel move,
       forwarding entry per moved object. *)
    Vec.clear movable;
    Vec.iter
      (fun idx ->
        let r = rheap.Rh.regions.(idx) in
        Vec.iter
          (fun id -> if Os.is_marked store id then Vec.push movable id)
          r.Rh.objects)
      cset;
    let moved_bytes = ref 0 in
    Os.plan_clear store;
    Os.fwd_begin store;
    let target = ref None in
    Vec.iter
      (fun id ->
        let size = Os.size store id in
        moved_bytes := !moved_bytes + size;
        let src = Rh.region_of rheap id in
        let rec place () =
          match !target with
          | Some r when r.Rh.used + size <= rheap.Rh.region_size ->
              Rh.add_used rheap src (-size);
              Os.plan_push_region store id ~region:r.Rh.idx
                ~age:(Os.age store id);
              Rh.add_used rheap r size;
              Vec.push r.Rh.objects id;
              Os.fwd_record store id
          | _ -> (
              match Rh.take_free_region rheap Rh.Old_region with
              | Some r ->
                  target := Some r;
                  place ()
              | None -> assert false (* capped by budget_regions above *))
        in
        place ())
      movable;
    ignore (Os.finish_relocate store);
    (* Release the sources (frees their unreached objects), newest pick
       last — matching the selection order keeps free-slot recycling
       deterministic. *)
    for i = Vec.length cset - 1 downto 0 do
      Rh.release_region rheap rheap.Rh.regions.(Vec.get cset i)
    done;
    let y = young_used () and o = old_hum_used () in
    let phases = flip_phases () in
    record ~kind:Gc_event.Remark ~reason:"concurrent mark flip"
      ~phases:(fun () -> phases)
      ~duration:(sum phases) ~young_before:y ~old_before:o ~promoted:0 ();
    st.phase <- Relocating { remaining_bytes = float_of_int !moved_bytes }
  in
  (* Remap flip: the concurrent copy is done; heal every forwarding
     entry the mutators never read through.  Bulk healing is a linear
     sweep on the GC threads, kept well inside the sub-ms pause class. *)
  let remap_flip () =
    let pending = Os.fwd_pending store in
    ignore (Os.fwd_heal_all store);
    let remap_us =
      float_of_int pending *. flip_heal_us
      /. Machine.parallel_speedup m m.Machine.gc_threads
    in
    let phases =
      [
        (Span.Safepoint, Gc_ctx.stw_begin_us ctx);
        (Span.Remap, remap_us);
        (Span.Fixed, cost.Machine.flip_fixed_us);
      ]
    in
    let y = young_used () and o = old_hum_used () in
    record ~kind:Gc_event.Cleanup ~reason:"remap flip"
      ~phases:(fun () -> phases)
      ~duration:(sum phases) ~young_before:y ~old_before:o ~promoted:0 ();
    st.phase <- Idle
  in
  (* Degenerate STW mark-compact (allocation stall): trace, free the
     dead, slide everything live into freshly packed regions.  Runs on
     all GC threads — the pauseless family never has a single-threaded
     full collection, it has a rare parallel one. *)
  let full_gc reason =
    let young_before = young_used () and old_before = old_hum_used () in
    let marked = trace_all () in
    let live = Vec.fold (fun a id -> a + Os.size store id) 0 marked in
    if live > rheap.Rh.heap_bytes then
      raise
        (Gc_ctx.Out_of_memory
           (Printf.sprintf "%s: live data (%d) exceeds heap (%d)" name live
              rheap.Rh.heap_bytes));
    Vec.clear movable;
    let freed = ref 0 in
    let dead_humongous = ref [] in
    Array.iter
      (fun r ->
        Rh.compact_region_objects rheap r;
        match r.Rh.kind with
        | Rh.Humongous ->
            if r.Rh.hum_len > 0 then
              Vec.iter
                (fun id ->
                  if not (Os.is_marked store id) then
                    dead_humongous := id :: !dead_humongous)
                r.Rh.objects
        | Rh.Eden | Rh.Survivor | Rh.Old_region ->
            Vec.iter
              (fun id ->
                if Os.is_marked store id then Vec.push movable id
                else begin
                  let size = Os.size store id in
                  freed := !freed + size;
                  Rh.add_used rheap r (-size);
                  Os.free store id
                end)
              r.Rh.objects
        | Rh.Free -> ())
      rheap.Rh.regions;
    List.iter
      (fun id ->
        freed := !freed + Os.size store id;
        Rh.release_humongous rheap id)
      !dead_humongous;
    Array.iter
      (fun r ->
        match r.Rh.kind with
        | Rh.Eden | Rh.Survivor | Rh.Old_region -> Rh.retire_region rheap r
        | Rh.Humongous | Rh.Free -> ())
      rheap.Rh.regions;
    let target = ref None in
    let moved_bytes = ref 0 in
    Os.plan_clear store;
    (* Inside the stop-the-world window every stale reference is fixed
       before mutators resume: the forwarding table restarts empty. *)
    Os.fwd_begin store;
    Vec.iter
      (fun id ->
        let size = Os.size store id in
        moved_bytes := !moved_bytes + size;
        let rec place () =
          match !target with
          | Some r when r.Rh.used + size <= rheap.Rh.region_size ->
              Os.plan_push_region store id ~region:r.Rh.idx
                ~age:(Os.age store id);
              Rh.add_used rheap r size;
              Vec.push r.Rh.objects id
          | _ -> (
              match Rh.take_free_region rheap Rh.Old_region with
              | Some r ->
                  target := Some r;
                  place ()
              | None ->
                  raise
                    (Gc_ctx.Out_of_memory
                       (name ^ ": no free region during compaction")))
        in
        place ())
      movable;
    let moved_objects =
      Os.finish_relocate store
    in
    st.phase <- Idle;
    let workers = m.Machine.gc_threads in
    let phases =
      [
        (Span.Safepoint, Gc_ctx.stw_begin_us ctx);
        ( Span.Root_scan,
          Machine.root_scan_us m ~mutator_threads:ctx.Gc_ctx.mutator_threads );
        (Span.Fixed, cost.Machine.gc_fixed_us);
        ( Span.Mark,
          Machine.phase_us m ~rate:cost.Machine.mark_rate ~workers ~bytes:live
        );
        ( Span.Sweep,
          Machine.phase_us m ~rate:cost.Machine.sweep_rate ~workers
            ~bytes:!freed );
        ( Span.Compact,
          Machine.phase_us m ~rate:cost.Machine.compact_rate ~workers
            ~bytes:!moved_bytes );
      ]
    in
    let sub () =
      if moved_objects = 0 then []
      else begin
        let compact_us =
          match List.assoc_opt Span.Compact phases with
          | Some us -> us
          | None -> 0.0
        in
        let plan = compact_us /. 8.0 in
        [ (Span.Plan, plan); (Span.Move, compact_us -. plan) ]
      end
    in
    record ~sub ~kind:Gc_event.Full ~reason
      ~phases:(fun () -> phases)
      ~duration:(sum phases) ~young_before ~old_before ~promoted:0 ()
  in
  let alloc ~size =
    maybe_start_mark ();
    if Rh.is_humongous rheap ~size then begin
      match Rh.alloc_humongous rheap ~size with
      | Some id -> id
      | None -> (
          full_gc "humongous allocation stall";
          match Rh.alloc_humongous rheap ~size with
          | Some id -> id
          | None ->
              raise
                (Gc_ctx.Out_of_memory
                   (Printf.sprintf "%s: cannot fit humongous %d bytes" name
                      size)))
    end
    else begin
      match Rh.alloc_young rheap ~size with
      | Some id -> id
      | None ->
          full_gc "allocation stall";
          (match Rh.alloc_young rheap ~size with
          | Some id -> id
          | None ->
              raise
                (Gc_ctx.Out_of_memory
                   (Printf.sprintf "%s: heap exhausted allocating %d bytes"
                      name size)))
    end
  in
  let tick ~dt_us =
    match st.phase with
    | Idle -> maybe_start_mark ()
    | Marking mk ->
        let rate =
          cost.Machine.mark_rate
          *. Machine.parallel_speedup m m.Machine.conc_gc_threads
        in
        mk.remaining_bytes <- mk.remaining_bytes -. (rate *. dt_us);
        if mk.remaining_bytes <= 0.0 then mark_flip ()
    | Relocating rl ->
        let rate =
          cost.Machine.copy_rate
          *. Machine.parallel_speedup m m.Machine.conc_gc_threads
        in
        rl.remaining_bytes <- rl.remaining_bytes -. (rate *. dt_us);
        if rl.remaining_bytes <= 0.0 then remap_flip ()
  in
  let mutator_factor () =
    match st.phase with
    | Idle -> 1.0
    | Marking _ ->
        let cores = float_of_int (Machine.cores m) in
        let stolen = float_of_int m.Machine.conc_gc_threads in
        cost.Machine.satb_barrier_factor
        *. (cores /. Float.max 1.0 (cores -. stolen))
    | Relocating _ ->
        let cores = float_of_int (Machine.cores m) in
        let stolen = float_of_int m.Machine.conc_gc_threads in
        cost.Machine.load_barrier_factor
        *. (cores /. Float.max 1.0 (cores -. stolen))
  in
  (* Tax split for distillation: the barrier factor is a pure mutator
     tax (charged even on an otherwise idle machine); the core ratio is
     stolen CPU.  Their product is exactly [mutator_factor] above. *)
  let mutator_tax () =
    let cores = float_of_int (Machine.cores m) in
    let stolen = float_of_int m.Machine.conc_gc_threads in
    let steal = cores /. Float.max 1.0 (cores -. stolen) in
    match st.phase with
    | Idle -> (1.0, 1.0)
    | Marking _ -> (cost.Machine.satb_barrier_factor, steal)
    | Relocating _ -> (cost.Machine.load_barrier_factor, steal)
  in
  (* The load barrier on the reference-store path: both ends of the
     store are read, so a forwarded endpoint heals here (self-healing),
     once.  Everything the mutators never touch heals at the remap
     flip. *)
  let barrier id =
    if Os.fwd_read store id && Telemetry.enabled tel then
      Telemetry.incr tel "gc.load_barrier_hits" 1.0
  in
  Policy_hooks.install_region_capacity ctx rheap;
  {
    Collector.name;
    kind = Gc_config.Concurrent_regions;
    alloc;
    alloc_old = alloc;
    system_gc = (fun () -> full_gc "system.gc");
    tick;
    mutator_factor;
    mutator_tax;
    write_ref =
      (fun ~parent ~child ->
        barrier parent;
        barrier child;
        Os.add_ref store ~from:parent ~to_:child);
    remove_ref =
      (fun ~parent ~child ->
        barrier parent;
        barrier child;
        Os.remove_ref store ~from:parent ~to_:child);
    heap_used = (fun () -> Rh.heap_used rheap);
    heap_capacity = (fun () -> rheap.Rh.heap_bytes);
    young_used;
    old_used = old_hum_used;
    apply_policy =
      Policy_hooks.region_heap_hook ctx rheap ~collector:name ~tenuring;
    store;
    check_invariants = (fun () -> Rh.check_invariants rheap);
  }
