module Vec = Gcperf_util.Vec
module Int_table = Gcperf_util.Int_table
module Prng = Gcperf_util.Prng
module Heapq = Gcperf_util.Heapq
module Machine = Gcperf_machine.Machine
module Clock = Gcperf_sim.Clock
module Gc_event = Gcperf_sim.Gc_event
module Gc_ctx = Gcperf_gc.Gc_ctx
module Gc_config = Gcperf_gc.Gc_config
module Collector = Gcperf_gc.Collector
module Registry = Gcperf_gc.Registry
module Telemetry = Gcperf_telemetry.Telemetry
module Metrics = Gcperf_telemetry.Metrics
module Cost = Gcperf_telemetry.Cost

type thread = {
  tid : int;
  roots : Int_table.t;
  prng : Prng.t;
  mutable live : bool;
  mutable quantum_allocs : int;
  mutable quantum_bytes : int;
}

(* Per-thread TLAB size (256 KB): one refill per this many bytes. *)
let tlab_bytes = 256 * 1024

(* A death-queue payload packs the dying root's owner and its object id
   into one immediate: [id lsl owner_bits lor owner], where [owner] is 0
   for a global root and [tid + 1] for a thread root.  An [int Heapq.t]
   then stores it unboxed, so registering a death allocates nothing.  Ids
   are object-store slots, far below the 2^46 that fit above the owner
   bits; [check_tid], which [spawn_thread] applies, rejects a tid that
   does not fit below them. *)
let owner_bits = 16
let owner_mask = (1 lsl owner_bits) - 1

let check_tid tid =
  if tid < 0 || tid + 1 > owner_mask then
    invalid_arg
      (Printf.sprintf
         "Vm.spawn_thread: tid %d does not fit (at most %d threads per VM)" tid
         owner_mask)

type t = {
  machine : Machine.t;
  config : Gc_config.t;
  clock : Clock.t;
  events : Gc_event.t;
  ctx : Gc_ctx.t;
  collector : Collector.t;
  (* [collector.alloc], hoisted: the allocation fast path loads one field
     instead of chasing through the collector record. *)
  alloc_fn : size:int -> int;
  threads : thread Vec.t;
  globals : Int_table.t;
  (* packed owner and id, keyed by cumulative allocated bytes *)
  deaths : int Heapq.t;
  prng : Prng.t;
  mutable allocated : int;
  step_counters : step_counters;
}

(* The telemetry counters and gauges [step] writes, interned at
   creation. *)
and step_counters = {
  allocated_bytes : Metrics.handle;
  mutator_raw_us : Metrics.handle;
  alloc_tax_us : Metrics.handle;
  barrier_tax_us : Metrics.handle;
  steal_tax_us : Metrics.handle;
  promoted_total : Metrics.handle;  (* bumped by Gc_ctx.record_pause *)
  heap_used : Metrics.gauge;
  heap_young : Metrics.gauge;
  heap_old : Metrics.gauge;
  alloc_rate : Metrics.gauge;
  promoted : Metrics.gauge;
}

type lifetime = [ `Bytes of int | `Permanent ]

let create ?telemetry machine config ~seed =
  let clock = Clock.create () in
  let events = Gc_event.create () in
  let ctx = Gc_ctx.create ?telemetry machine clock events in
  let collector = Registry.create ctx config in
  let t =
    {
      machine;
      config;
      clock;
      events;
      ctx;
      collector;
      alloc_fn = collector.Collector.alloc;
      threads = Vec.create ();
      globals = Int_table.create 64;
      deaths = Heapq.create ();
      prng = Prng.create seed;
      allocated = 0;
      step_counters =
        (let m = Telemetry.metrics ctx.Gc_ctx.telemetry in
         {
           allocated_bytes = Metrics.handle m "vm.allocated_bytes";
           mutator_raw_us = Metrics.handle m Cost.mutator_raw_us;
           alloc_tax_us = Metrics.handle m Cost.alloc_tax_us;
           barrier_tax_us = Metrics.handle m Cost.barrier_tax_us;
           steal_tax_us = Metrics.handle m Cost.steal_tax_us;
           promoted_total = Metrics.handle m "gc.promoted_bytes_total";
           heap_used = Metrics.gauge m "heap.used_bytes";
           heap_young = Metrics.gauge m "heap.young_bytes";
           heap_old = Metrics.gauge m "heap.old_bytes";
           alloc_rate = Metrics.gauge m "alloc.rate_bytes_per_s";
           promoted = Metrics.gauge m "gc.promoted_bytes";
         });
    }
  in
  ctx.Gc_ctx.mutator_threads <- 0;
  ctx.Gc_ctx.iter_roots <-
    (fun f ->
      Vec.iter
        (fun th -> if th.live then Int_table.iter f th.roots)
        t.threads;
      Int_table.iter f t.globals);
  t

let machine t = t.machine
let events t = t.events
let collector t = t.collector
let policy t = t.ctx.Gc_ctx.policy
let now_s t = Clock.now_s t.clock
let allocated_bytes t = t.allocated

let spawn_thread t =
  let tid = Vec.length t.threads in
  check_tid tid;
  let th =
    {
      tid;
      roots = Int_table.create 64;
      prng = Prng.split t.prng;
      live = true;
      quantum_allocs = 0;
      quantum_bytes = 0;
    }
  in
  Vec.push t.threads th;
  t.ctx.Gc_ctx.mutator_threads <- t.ctx.Gc_ctx.mutator_threads + 1;
  th

let kill_thread t th =
  if th.live then begin
    th.live <- false;
    Int_table.reset th.roots;
    t.ctx.Gc_ctx.mutator_threads <- Int.max 0 (t.ctx.Gc_ctx.mutator_threads - 1)
  end

let threads t =
  Vec.fold (fun acc th -> if th.live then th :: acc else acc) [] t.threads
  |> List.rev

let[@inline] register_thread_death t tid id lifetime =
  match lifetime with
  | `Permanent -> ()
  | `Bytes b ->
      Heapq.push t.deaths (t.allocated + Int.max 1 b)
        ((id lsl owner_bits) lor (tid + 1))

let[@inline] register_global_death t id lifetime =
  match lifetime with
  | `Permanent -> ()
  | `Bytes b ->
      Heapq.push t.deaths (t.allocated + Int.max 1 b) (id lsl owner_bits)

let[@inline] alloc t th ~size ~lifetime =
  let id = t.alloc_fn ~size in
  t.allocated <- t.allocated + size;
  th.quantum_allocs <- th.quantum_allocs + 1;
  th.quantum_bytes <- th.quantum_bytes + size;
  (* [add], not [replace]: a freshly allocated id is never already rooted
     (rooted implies live, and live ids are not recycled), and insertion
     at the bucket head is where [replace] would have put a new key too,
     so the table's iteration order is unchanged. *)
  Int_table.add th.roots id;
  register_thread_death t th.tid id lifetime;
  id

let alloc_global t ~size ~lifetime =
  let id = t.collector.Collector.alloc ~size in
  t.allocated <- t.allocated + size;
  Int_table.add t.globals id;
  register_global_death t id lifetime;
  id

let alloc_old_global t ~size ~lifetime =
  let id = t.collector.Collector.alloc_old ~size in
  t.allocated <- t.allocated + size;
  Int_table.add t.globals id;
  register_global_death t id lifetime;
  id

let add_ref t ~parent ~child = t.collector.Collector.write_ref ~parent ~child

let remove_ref t ~parent ~child =
  t.collector.Collector.remove_ref ~parent ~child

let[@inline] drop_root _t th id = Int_table.remove th.roots id

let drop_global_root t id = Int_table.remove t.globals id

let global_root t id = Int_table.replace t.globals id

(* Drains every due entry before anything else runs.  Roots are never
   registered twice, so each table's final state does not depend on the
   order in which equal-keyed deaths come off the queue. *)
let rec process_deaths t =
  match Heapq.min_key t.deaths with
  | Some key when key <= t.allocated ->
      (match Heapq.pop t.deaths with
      | Some (_key, packed) ->
          let id = packed lsr owner_bits and owner = packed land owner_mask in
          if owner = 0 then Int_table.remove t.globals id
          else
            let th = Vec.get t.threads (owner - 1) in
            if th.live then Int_table.remove th.roots id
      | None -> ());
      process_deaths t
  | Some _ | None -> ()

let step t ~dt_us f =
  let n_live = ref 0 in
  Vec.iter
    (fun th ->
      if th.live then begin
        incr n_live;
        th.quantum_allocs <- 0;
        th.quantum_bytes <- 0;
        f th
      end)
    t.threads;
  (* Allocation overhead: TLAB refills happen in parallel (the quantum
     stretches by the average per-thread cost), but TLAB-less allocation
     serialises on the shared allocation pointer, so the whole quantum
     pays the sum. *)
  let overhead = ref 0.0 in
  Vec.iter
    (fun th ->
      if th.live && th.quantum_allocs > 0 then
        overhead :=
          !overhead
          +. Machine.alloc_overhead_us t.machine ~tlab:t.config.Gc_config.tlab
               ~threads:!n_live ~allocations:th.quantum_allocs
               ~bytes:th.quantum_bytes
               ~tlab_bytes)
    t.threads;
  let alloc_overhead =
    if !n_live = 0 then 0.0
    else if t.config.Gc_config.tlab then !overhead /. float_of_int !n_live
    else !overhead
  in
  let factor = t.collector.Collector.mutator_factor () in
  Clock.advance_us t.clock ((dt_us *. factor) +. alloc_overhead);
  process_deaths t;
  t.collector.Collector.tick ~dt_us;
  (* Safepoint: the quantum boundary is the only place ergonomics
     decisions are applied.  Collections inside the quantum may have left
     a pending decision; consuming it here (never mid-allocation) keeps
     runs deterministic and byte-identical across worker counts. *)
  t.collector.Collector.apply_policy ();
  (* Per-quantum gauges: pure observation after all state transitions of
     the quantum, so sampling cannot perturb the run. *)
  let tel = t.ctx.Gc_ctx.telemetry in
  if Telemetry.enabled tel then begin
    let t_us = Clock.now_us t.clock in
    let q_bytes =
      Vec.fold
        (fun acc th -> if th.live then acc + th.quantum_bytes else acc)
        0 t.threads
    in
    let c = t.step_counters in
    Metrics.bump c.allocated_bytes (float_of_int q_bytes);
    (* Distillation accounting (Cost, DESIGN.md §18): split the dilation
       the clock just charged — dt·(factor−1) — into the collector's own
       (barrier, steal) attribution.  Pure bookkeeping on the already-
       advanced clock: the [mutator_tax] hook is read-only and these
       counters never feed back into the simulation. *)
    let barrier_f, steal_f = t.collector.Collector.mutator_tax () in
    let tax_total_us = dt_us *. (factor -. 1.0) in
    let steal_us = Float.min tax_total_us (dt_us *. barrier_f *. (steal_f -. 1.0)) in
    let barrier_us = Float.max 0.0 (tax_total_us -. steal_us) in
    Metrics.bump c.mutator_raw_us dt_us;
    Metrics.bump c.alloc_tax_us alloc_overhead;
    Metrics.bump c.barrier_tax_us barrier_us;
    Metrics.bump c.steal_tax_us steal_us;
    Metrics.observe c.heap_used ~t_us
      (float_of_int (t.collector.Collector.heap_used ()));
    Metrics.observe c.heap_young ~t_us
      (float_of_int (t.collector.Collector.young_used ()));
    Metrics.observe c.heap_old ~t_us
      (float_of_int (t.collector.Collector.old_used ()));
    if dt_us > 0.0 then
      Metrics.observe c.alloc_rate ~t_us
        (float_of_int q_bytes /. (dt_us *. 1e-6));
    Metrics.observe c.promoted ~t_us (Metrics.value c.promoted_total)
  end

let system_gc t = t.collector.Collector.system_gc ()

let is_live t id =
  Gcperf_heap.Obj_store.is_live t.collector.Collector.store id

let check_invariants t = t.collector.Collector.check_invariants ()
