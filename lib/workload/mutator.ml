module Vec = Gcperf_util.Vec
module Ivec = Gcperf_util.Int_vec
module Prng = Gcperf_util.Prng
module Vm = Gcperf_runtime.Vm
module Machine = Gcperf_machine.Machine
module Gc_event = Gcperf_sim.Gc_event

type t = {
  vm : Vm.t;
  profile : Profile.t;
  threads : Vm.thread array;
  prng : Prng.t;
  live_set : Ivec.t;  (* long-lived objects, targets of update stores *)
  recent : Ivec.t array;  (* per-thread ring of recently allocated ids *)
  pending : int array;  (* per-thread sampled-but-unallocated size; 0 = none *)
  budget : float array;  (* per-thread allocation budget carry-over *)
  batch : (int * int) Vec.t;  (* (thread slot, id): iteration-lifetime roots *)
  mutable iteration : int;
}

type iteration_stats = {
  index : int;
  duration_s : float;
  allocated_bytes : int;
  pauses : int;
  pause_s : float;
}

let recent_ring_size = 8

(* Maximum out-degree of a long-lived update-store holder. *)
let holder_fanout_cap = 1

let sample_size t prng =
  let { Profile.mean_bytes; sigma } = t.profile.Profile.size in
  if sigma <= 0.0 then mean_bytes
  else begin
    (* Log-normal with the requested mean: mu = ln(mean) - sigma^2/2. *)
    let mu = log (float_of_int mean_bytes) -. (sigma *. sigma /. 2.0) in
    let s = Prng.lognormal prng ~mu ~sigma in
    (* Clamp to keep clusters within a sane band. *)
    let lo = float_of_int mean_bytes /. 8.0
    and hi = float_of_int mean_bytes *. 8.0 in
    int_of_float (Float.max lo (Float.min hi s))
  end

let build_live_set t =
  let target = t.profile.Profile.startup_live_bytes in
  let prng = t.prng in
  let built = ref 0 in
  let prev = ref (-1) in
  while !built < target do
    let size = sample_size t prng in
    let id = Vm.alloc_global t.vm ~size ~lifetime:`Permanent in
    built := !built + size;
    Ivec.push t.live_set id;
    (* Chain the live set so tracing it is real graph work. *)
    if !prev >= 0 && Vm.is_live t.vm !prev then
      Vm.add_ref t.vm ~parent:!prev ~child:id;
    prev := id
  done

let create vm profile ~seed =
  let prng = Prng.create seed in
  let n =
    Profile.threads_for profile
      ~hw_threads:(Machine.cores (Vm.machine vm))
  in
  let threads = Array.init n (fun _ -> Vm.spawn_thread vm) in
  let t =
    {
      vm;
      profile;
      threads;
      prng;
      live_set = Ivec.create ();
      recent = Array.init n (fun _ -> Ivec.create ());
      pending = Array.make n 0;
      budget = Array.make n 0.0;
      batch = Vec.create ();
      iteration = 0;
    }
  in
  build_live_set t;
  t

let thread_count t = Array.length t.threads
let live_set_size t = Ivec.length t.live_set

let remember_recent t slot id =
  let ring = t.recent.(slot) in
  if Ivec.length ring < recent_ring_size then Ivec.push ring id
  else Ivec.set ring (Prng.int t.prng recent_ring_size) id

let link_new_object t slot id =
  let p = t.profile in
  let prng = t.prng in
  let ring = t.recent.(slot) in
  if Ivec.length ring > 0 && Prng.chance prng p.Profile.ref_locality then begin
    let other = Ivec.get ring (Prng.int prng (Ivec.length ring)) in
    if Vm.is_live t.vm other then
      if Prng.bool prng then Vm.add_ref t.vm ~parent:id ~child:other
      else Vm.add_ref t.vm ~parent:other ~child:id
  end;
  if
    Ivec.length t.live_set > 0
    && Prng.chance prng p.Profile.update_store_prob
  then begin
    (* An update store: a long-lived object is mutated to reference the
       new one — the canonical source of old-to-young pointers.  The
       holder's slot is overwritten, not appended: real collections have
       bounded fan-out, so an old reference is dropped once the holder is
       full (otherwise update stores would pin every target forever). *)
    let holder = Ivec.get t.live_set (Prng.int prng (Ivec.length t.live_set)) in
    if Vm.is_live t.vm holder then begin
      let store = (Vm.collector t.vm).Gcperf_gc.Collector.store in
      let nrefs = Gcperf_heap.Obj_store.ref_count store holder in
      if nrefs >= holder_fanout_cap then begin
        let victim =
          Gcperf_heap.Obj_store.ref_at store holder (Prng.int prng nrefs)
        in
        Vm.remove_ref t.vm ~parent:holder ~child:victim
      end;
      Vm.add_ref t.vm ~parent:holder ~child:id
    end
  end

let sample_lifetime t =
  let l = t.profile.Profile.lifetime in
  let u = Prng.float t.prng 1.0 in
  if u < l.Profile.short_frac then
    `Dies (int_of_float (Prng.exponential t.prng l.Profile.short_mean_bytes))
  else if u < l.Profile.short_frac +. l.Profile.medium_frac then
    `Dies (int_of_float (Prng.exponential t.prng l.Profile.medium_mean_bytes))
  else if
    u < l.Profile.short_frac +. l.Profile.medium_frac +. l.Profile.iteration_frac
  then `Iteration
  else if
    u
    < l.Profile.short_frac +. l.Profile.medium_frac +. l.Profile.iteration_frac
      +. l.Profile.permanent_frac
  then `Permanent
  else `Dies (int_of_float (Prng.exponential t.prng l.Profile.short_mean_bytes))

let allocate_one t slot th size =
  match sample_lifetime t with
  | `Dies b ->
      let id = Vm.alloc t.vm th ~size ~lifetime:(`Bytes (max 1 b)) in
      remember_recent t slot id;
      link_new_object t slot id
  | `Iteration ->
      let id = Vm.alloc t.vm th ~size ~lifetime:`Permanent in
      Vec.push t.batch (slot, id);
      remember_recent t slot id;
      link_new_object t slot id
  | `Permanent ->
      let id = Vm.alloc t.vm th ~size ~lifetime:`Permanent in
      (* Move the root from the thread to the global live set. *)
      Vm.global_root t.vm id;
      Vm.drop_root t.vm th id;
      Ivec.push t.live_set id;
      remember_recent t slot id;
      link_new_object t slot id

let drop_batch t =
  Vec.iter
    (fun (slot, id) -> Vm.drop_root t.vm t.threads.(slot) id)
    t.batch;
  Vec.clear t.batch

(* One mutator quantum for a thread: spend the allocation budget. *)
let thread_quantum t slot th per_thread_bytes =
  t.budget.(slot) <- t.budget.(slot) +. per_thread_bytes;
  let continue_ = ref true in
  while !continue_ do
    let size =
      if t.pending.(slot) > 0 then t.pending.(slot) else sample_size t t.prng
    in
    if float_of_int size <= t.budget.(slot) then begin
      t.pending.(slot) <- 0;
      t.budget.(slot) <- t.budget.(slot) -. float_of_int size;
      allocate_one t slot th size
    end
    else begin
      t.pending.(slot) <- size;
      continue_ := false
    end
  done

let quanta_per_iteration = 160

let pause_stats_since events n0 =
  let all = Gc_event.events events in
  let rec drop n l = if n <= 0 then l else match l with [] -> [] | _ :: tl -> drop (n - 1) tl in
  let fresh = drop n0 all in
  List.fold_left
    (fun (c, s) e -> (c + 1, s +. (e.Gc_event.duration_us /. 1e6)))
    (0, 0.0) fresh

let run_iteration t =
  t.iteration <- t.iteration + 1;
  let p = t.profile in
  let prng = t.prng in
  let noise sigma =
    if sigma <= 0.0 then 1.0
    else Prng.lognormal prng ~mu:(-.(sigma *. sigma) /. 2.0) ~sigma
  in
  let total_alloc =
    int_of_float (float_of_int p.Profile.iteration_alloc_bytes *. noise p.Profile.phase_noise)
  in
  let cpu_s = p.Profile.iteration_cpu_s *. noise p.Profile.phase_noise in
  let n = Array.length t.threads in
  let dt_us = cpu_s *. 1e6 /. float_of_int quanta_per_iteration in
  let per_quantum_thread =
    float_of_int total_alloc /. float_of_int (quanta_per_iteration * n)
  in
  let events = Vm.events t.vm in
  let events_before = Gc_event.count events in
  let start_s = Vm.now_s t.vm in
  let alloc_before = Vm.allocated_bytes t.vm in
  let boundary =
    if p.Profile.sawtooth <= 0 then max_int
    else max 1 (total_alloc / p.Profile.sawtooth)
  in
  let next_boundary = ref boundary in
  let slot_of = Hashtbl.create n in
  Array.iteri (fun i th -> Hashtbl.replace slot_of th.Vm.tid i) t.threads;
  for _q = 1 to quanta_per_iteration do
    Vm.step t.vm ~dt_us (fun th ->
        match Hashtbl.find_opt slot_of th.Vm.tid with
        | Some slot -> thread_quantum t slot th per_quantum_thread
        | None -> ());
    let done_bytes = Vm.allocated_bytes t.vm - alloc_before in
    if done_bytes >= !next_boundary && p.Profile.sawtooth > 0 then begin
      drop_batch t;
      next_boundary := !next_boundary + boundary
    end
  done;
  drop_batch t;
  let pauses, pause_s = pause_stats_since events events_before in
  {
    index = t.iteration;
    duration_s = Vm.now_s t.vm -. start_s;
    allocated_bytes = Vm.allocated_bytes t.vm - alloc_before;
    pauses;
    pause_s;
  }

let run_seconds t seconds =
  let p = t.profile in
  let rate_bytes_per_s =
    float_of_int p.Profile.iteration_alloc_bytes /. p.Profile.iteration_cpu_s
  in
  let dt_us = 50_000.0 in
  let n = Array.length t.threads in
  let per_quantum_thread =
    rate_bytes_per_s *. (dt_us /. 1e6) /. float_of_int n
  in
  let slot_of = Hashtbl.create n in
  Array.iteri (fun i th -> Hashtbl.replace slot_of th.Vm.tid i) t.threads;
  let stop = Vm.now_s t.vm +. seconds in
  while Vm.now_s t.vm < stop do
    Vm.step t.vm ~dt_us (fun th ->
        match Hashtbl.find_opt slot_of th.Vm.tid with
        | Some slot -> thread_quantum t slot th per_quantum_thread
        | None -> ())
  done
