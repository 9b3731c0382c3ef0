module Vec = Gcperf_util.Int_vec
module Machine = Gcperf_machine.Machine
module Gc_event = Gcperf_sim.Gc_event
module Os = Gcperf_heap.Obj_store
module Span = Gcperf_telemetry.Span

(* mo-gc-style journaled reference counting.

   Mutators pay a flat journaling tax ([alloc_overhead], the ~25%
   mo-gc measured) and append RC deltas to a journal: +1 per
   reference store, -1 per reference delete, and a 0-delta entry per
   allocation (the new-object record).  A concurrent collector thread
   folds a journal snapshot into the reference-count column — the fold
   is single-threaded in mo-gc, its observed bottleneck, and
   [journal_fold_jobs] parallelizes the *simulated* fold through the
   machine's speedup curve.  The host-side fold result is byte-identical
   at any worker count (see [Journal]); the knob only changes how long
   the simulated fold takes, hence how much backlog (and mutator
   backpressure) accumulates.

   Reclamation happens at a sub-ms fold flip.  An object is freed only
   when its folded count is <= 0, it is not in the root snapshot, and no
   *unfolded* journal entry mentions it (the pending guard) — by
   induction no journal entry can ever reference a freed (possibly
   recycled) id, which is what makes deferred RC sound here.  Cyclic or
   count-stuck garbage is collected by a concurrent backup trace at high
   occupancy, whose flip recounts every survivor's RC exactly from the
   heap's edges and clears both journals (the recount subsumes them). *)

type phase =
  | Idle
  | Folding of { mutable remaining_entries : float }
  | Tracing of { mutable remaining_bytes : float }

type state = {
  mutable phase : phase;
  mutable active : Journal.t;  (* mutators append here *)
  mutable snapshot : Journal.t;  (* being folded while phase = Folding *)
  mutable rc : int array;
  mutable in_pool : Bytes.t;
  pool : Vec.t;  (* candidate ids with rc <= 0, sweep order *)
  mutable root_stamp : int array;
  mutable pending_stamp : int array;
  mutable stamp_epoch : int;
  mutable used : int;
  mutable freed_bytes : int;
}

let name = "JournalRCGC"

(* Fractional mutator slowdown for journaling RC entries at allocation
   and store sites: the ~25% allocation overhead mo-gc measured. *)
let alloc_overhead = 0.25

(* Entries accumulated before the collector thread picks up a journal. *)
let fold_batch = 8192

(* Collector-thread map insertion, entries per us on one worker.  mo-gc's
   single-threaded insertion is the bottleneck this models: tuned so the
   replay/stress mutator outruns one fold worker (backlog ->
   backpressure) while [journal_fold_jobs] = 4 keeps up. *)
let fold_rate_entries_per_us = 0.003

(* Applying the folded column at the flip, per entry, before the
   parallel speedup of the stop-the-world GC threads. *)
let fold_apply_us = 0.004

(* Backup concurrent trace starts above this occupancy. *)
let trace_trigger = 0.85

let create ctx (config : Gc_config.t) =
  let m = ctx.Gc_ctx.machine in
  let cost = m.Machine.cost in
  let store = Os.create () in
  let heap_bytes = config.Gc_config.heap_bytes in
  let fold_jobs = config.Gc_config.journal_fold_jobs in
  let st =
    {
      phase = Idle;
      active = Journal.create ();
      snapshot = Journal.create ();
      rc = [||];
      in_pool = Bytes.empty;
      pool = Vec.create ();
      root_stamp = [||];
      pending_stamp = [||];
      stamp_epoch = 0;
      used = 0;
      freed_bytes = 0;
    }
  in
  let ensure id =
    if id >= Array.length st.rc then begin
      let cap = max 1024 (max (id + 1) (2 * Array.length st.rc)) in
      let ext col =
        let nd = Array.make cap 0 in
        Array.blit col 0 nd 0 (Array.length col);
        nd
      in
      st.rc <- ext st.rc;
      st.root_stamp <- ext st.root_stamp;
      st.pending_stamp <- ext st.pending_stamp;
      let nb = Bytes.make cap '\000' in
      Bytes.blit st.in_pool 0 nb 0 (Bytes.length st.in_pool);
      st.in_pool <- nb
    end
  in
  let[@inline] pool_add id =
    if Bytes.unsafe_get st.in_pool id = '\000' then begin
      Bytes.unsafe_set st.in_pool id '\001';
      Vec.push st.pool id
    end
  in
  let record ~kind ~reason ~phases ~duration ~used_before () =
    Gc_ctx.record_pause ctx ~collector:name ~kind ~reason ~phases
      ~duration_us:duration ~young_before:0 ~young_after:0
      ~old_before:used_before ~old_after:st.used ~promoted:0
  in
  let sum phases = List.fold_left (fun acc (_, us) -> acc +. us) 0.0 phases in
  let flip_phases () =
    [
      (Span.Safepoint, Gc_ctx.stw_begin_us ctx);
      ( Span.Root_scan,
        Machine.root_scan_us m ~mutator_threads:ctx.Gc_ctx.mutator_threads );
      (Span.Fixed, cost.Machine.flip_fixed_us);
    ]
  in
  (* Free [id] now, decrementing its children; children that drop to
     zero join the pool (and are swept further down this same flip when
     they are unrooted and unpending). *)
  let free_one id =
    Os.iter_refs store id (fun child ->
        st.rc.(child) <- st.rc.(child) - 1;
        if st.rc.(child) <= 0 then pool_add child);
    let size = Os.size store id in
    st.used <- st.used - size;
    st.freed_bytes <- st.freed_bytes + size;
    Bytes.unsafe_set st.in_pool id '\000';
    Os.free store id
  in
  (* Sweep the candidate pool against a fresh root snapshot and the
     pending set of the (unfolded) active journal.  Cascade frees append
     to the pool while it is being swept; the dynamic loop bound picks
     them up in the same pass. *)
  let sweep_pool () =
    st.stamp_epoch <- st.stamp_epoch + 1;
    let ep = st.stamp_epoch in
    ctx.Gc_ctx.iter_roots (fun id -> st.root_stamp.(id) <- ep);
    Journal.iter st.active (fun id _ -> st.pending_stamp.(id) <- ep);
    let j = ref 0 and i = ref 0 in
    while !i < Vec.length st.pool do
      let id = Vec.get st.pool !i in
      if Os.is_nowhere store id then Bytes.unsafe_set st.in_pool id '\000'
      else if st.rc.(id) > 0 then Bytes.unsafe_set st.in_pool id '\000'
      else if st.root_stamp.(id) = ep || st.pending_stamp.(id) = ep
      then begin
        Vec.unsafe_set st.pool !j id;
        incr j
      end
      else free_one id;
      incr i
    done;
    Vec.truncate st.pool !j
  in
  let start_fold () =
    let j = st.active in
    st.active <- st.snapshot;
    st.snapshot <- j;
    st.phase <-
      Folding { remaining_entries = float_of_int (Journal.length j) }
  in
  let fold_flip () =
    let used_before = st.used in
    let n = Journal.fold st.snapshot ~rc:st.rc in
    Journal.iter st.snapshot (fun id _ -> if st.rc.(id) <= 0 then pool_add id);
    Journal.clear st.snapshot;
    sweep_pool ();
    st.phase <- Idle;
    let apply_us =
      float_of_int n *. fold_apply_us
      /. Machine.parallel_speedup m m.Machine.gc_threads
    in
    let phases =
      [
        (Span.Safepoint, Gc_ctx.stw_begin_us ctx);
        ( Span.Root_scan,
          Machine.root_scan_us m ~mutator_threads:ctx.Gc_ctx.mutator_threads );
        (Span.Fold, apply_us);
        (Span.Fixed, cost.Machine.flip_fixed_us);
      ]
    in
    record ~kind:Gc_event.Cleanup ~reason:"journal fold"
      ~phases:(fun () -> phases)
      ~duration:(sum phases) ~used_before ()
  in
  (* Trace scratch, hoisted. *)
  let g_marked = Vec.create () and g_stack = Vec.create () in
  let dead_scratch = Vec.create () in
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
  (* The backup trace's flip: free everything unreached (cycles, stuck
     counts), recount every survivor's RC exactly from the live edges,
     and clear both journals — the recount subsumes every outstanding
     delta.  The pool restarts as exactly the zero-count live set. *)
  let trace_reclaim () =
    ignore (trace_all ());
    Vec.clear dead_scratch;
    Os.iter_live store (fun id ->
        if not (Os.is_marked store id) then Vec.push dead_scratch id);
    Vec.iter
      (fun id ->
        let size = Os.size store id in
        st.used <- st.used - size;
        st.freed_bytes <- st.freed_bytes + size;
        Os.free store id)
      dead_scratch;
    Os.iter_live store (fun id -> st.rc.(id) <- 0);
    Os.iter_live store (fun id ->
        Os.iter_refs store id (fun child ->
            st.rc.(child) <- st.rc.(child) + 1));
    Journal.clear st.active;
    Journal.clear st.snapshot;
    Bytes.fill st.in_pool 0 (Bytes.length st.in_pool) '\000';
    Vec.clear st.pool;
    Os.iter_live store (fun id -> if st.rc.(id) <= 0 then pool_add id);
    st.phase <- Idle;
    Vec.length dead_scratch
  in
  let trace_flip () =
    let used_before = st.used in
    ignore (trace_reclaim ());
    let phases = flip_phases () in
    record ~kind:Gc_event.Remark ~reason:"backup trace flip"
      ~phases:(fun () -> phases)
      ~duration:(sum phases) ~used_before ()
  in
  let maybe_start_work () =
    match st.phase with
    | Folding _ | Tracing _ -> ()
    | Idle ->
        if float_of_int st.used > trace_trigger *. float_of_int heap_bytes
        then begin
          let phases = flip_phases () in
          record ~kind:Gc_event.Initial_mark
            ~reason:"occupancy threshold crossed"
            ~phases:(fun () -> phases)
            ~duration:(sum phases) ~used_before:st.used ();
          st.phase <- Tracing { remaining_bytes = float_of_int st.used }
        end
        else if Journal.length st.active >= fold_batch then start_fold ()
  in
  (* Allocation-stall path: fold everything synchronously (no pending
     guard needed once both journals are empty), and if that is not
     enough, run the backup trace stop-the-world.  Both are honest Full
     pauses — the degenerate mode, like a ZGC allocation stall. *)
  let sync_reclaim reason =
    let used_before = st.used in
    let n =
      Journal.fold st.snapshot ~rc:st.rc
      + Journal.fold st.active ~rc:st.rc
    in
    Journal.iter st.snapshot (fun id _ -> if st.rc.(id) <= 0 then pool_add id);
    Journal.iter st.active (fun id _ -> if st.rc.(id) <= 0 then pool_add id);
    Journal.clear st.snapshot;
    Journal.clear st.active;
    let freed_before = st.freed_bytes in
    sweep_pool ();
    st.phase <- Idle;
    let freed = st.freed_bytes - freed_before in
    let workers = m.Machine.gc_threads in
    let phases =
      [
        (Span.Safepoint, Gc_ctx.stw_begin_us ctx);
        ( Span.Root_scan,
          Machine.root_scan_us m ~mutator_threads:ctx.Gc_ctx.mutator_threads );
        ( Span.Fold,
          float_of_int n *. fold_apply_us
          /. Machine.parallel_speedup m workers );
        ( Span.Sweep,
          Machine.phase_us m ~rate:cost.Machine.sweep_rate ~workers
            ~bytes:freed );
        (Span.Fixed, cost.Machine.gc_fixed_us);
      ]
    in
    record ~kind:Gc_event.Full ~reason
      ~phases:(fun () -> phases)
      ~duration:(sum phases) ~used_before ()
  in
  let sync_trace reason =
    let live_before = st.used in
    let _freed_objects = trace_reclaim () in
    if st.used > heap_bytes then
      raise
        (Gc_ctx.Out_of_memory
           (Printf.sprintf "%s: live data (%d) exceeds heap (%d)" name st.used
              heap_bytes));
    let freed = live_before - st.used in
    let workers = m.Machine.gc_threads in
    let phases =
      [
        (Span.Safepoint, Gc_ctx.stw_begin_us ctx);
        ( Span.Root_scan,
          Machine.root_scan_us m ~mutator_threads:ctx.Gc_ctx.mutator_threads );
        ( Span.Mark,
          Machine.phase_us m ~rate:cost.Machine.mark_rate ~workers
            ~bytes:st.used );
        ( Span.Sweep,
          Machine.phase_us m ~rate:cost.Machine.sweep_rate ~workers
            ~bytes:(max 0 freed) );
        (Span.Fixed, cost.Machine.gc_fixed_us);
      ]
    in
    record ~kind:Gc_event.Full ~reason
      ~phases:(fun () -> phases)
      ~duration:(sum phases) ~used_before:live_before ()
  in
  let alloc ~size =
    maybe_start_work ();
    if st.used + size > heap_bytes then begin
      sync_reclaim "allocation failure";
      if st.used + size > heap_bytes then sync_trace "allocation failure";
      if st.used + size > heap_bytes then
        raise
          (Gc_ctx.Out_of_memory
             (Printf.sprintf "%s: heap exhausted allocating %d bytes" name
                size))
    end;
    let id = Os.alloc store ~size ~loc:Os.Old in
    ensure id;
    st.used <- st.used + size;
    st.rc.(id) <- 0;
    Journal.append st.active id 0;
    pool_add id;
    id
  in
  let tick ~dt_us =
    match st.phase with
    | Idle -> maybe_start_work ()
    | Folding f ->
        let rate =
          fold_rate_entries_per_us *. Machine.parallel_speedup m fold_jobs
        in
        f.remaining_entries <- f.remaining_entries -. (rate *. dt_us);
        if f.remaining_entries <= 0.0 then fold_flip ()
    | Tracing tr ->
        let rate =
          cost.Machine.mark_rate
          *. Machine.parallel_speedup m m.Machine.conc_gc_threads
        in
        tr.remaining_bytes <- tr.remaining_bytes -. (rate *. dt_us);
        if tr.remaining_bytes <= 0.0 then trace_flip ()
  in
  let mutator_factor () =
    let backlog = Journal.length st.active in
    let base = 1.0 +. alloc_overhead in
    let cores = float_of_int (Machine.cores m) in
    let steal =
      match st.phase with
      | Idle -> 1.0
      | Folding _ ->
          cores /. Float.max 1.0 (cores -. float_of_int fold_jobs)
      | Tracing _ ->
          cores /. Float.max 1.0 (cores -. float_of_int m.Machine.conc_gc_threads)
    in
    (* Backpressure: once the fold falls behind by a couple of batches,
       the mutator is throttled until production matches fold capacity —
       mo-gc's throughput limit at one fold worker. *)
    let lag =
      float_of_int (backlog - (2 * fold_batch)) /. float_of_int (4 * fold_batch)
    in
    let pressure = 1.0 +. Float.min 3.0 (Float.max 0.0 lag) in
    base *. steal *. pressure
  in
  (* Tax split for distillation, side-effect free: journal appends and
     backpressure throttling are mutator tax, the fold/trace workers are
     stolen cores. *)
  let mutator_tax () =
    let backlog = Journal.length st.active in
    let base = 1.0 +. alloc_overhead in
    let cores = float_of_int (Machine.cores m) in
    let steal =
      match st.phase with
      | Idle -> 1.0
      | Folding _ ->
          cores /. Float.max 1.0 (cores -. float_of_int fold_jobs)
      | Tracing _ ->
          cores /. Float.max 1.0 (cores -. float_of_int m.Machine.conc_gc_threads)
    in
    let lag =
      float_of_int (backlog - (2 * fold_batch)) /. float_of_int (4 * fold_batch)
    in
    let pressure = 1.0 +. Float.min 3.0 (Float.max 0.0 lag) in
    (base *. pressure, steal)
  in
  ctx.Gc_ctx.young_capacity <- (fun () -> config.Gc_config.young_bytes);
  ctx.Gc_ctx.heap_capacity <- (fun () -> heap_bytes);
  {
    Collector.name;
    kind = Gc_config.Journal_rc;
    alloc;
    alloc_old = alloc;
    system_gc = (fun () -> sync_trace "system.gc");
    tick;
    mutator_factor;
    mutator_tax;
    write_ref =
      (fun ~parent ~child ->
        Os.add_ref store ~from:parent ~to_:child;
        Journal.append st.active child 1);
    remove_ref =
      (fun ~parent ~child ->
        Os.remove_ref store ~from:parent ~to_:child;
        Journal.append st.active child (-1));
    heap_used = (fun () -> st.used);
    heap_capacity = (fun () -> heap_bytes);
    young_used = (fun () -> 0);
    old_used = (fun () -> st.used);
    apply_policy = (fun () -> ());
    store;
    check_invariants =
      (fun () ->
        let sum = ref 0 in
        Os.iter_live store (fun id -> sum := !sum + Os.size store id);
        if !sum <> st.used then
          Error
            (Printf.sprintf "%s: used accounting drift (%d vs %d)" name
               st.used !sum)
        else Ok ());
  }
