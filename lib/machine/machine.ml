type topology = {
  sockets : int;
  numa_nodes_per_socket : int;
  cores_per_numa_node : int;
  l1_kb : int;
  l2_kb : int;
  l3_mb_per_node : int;
  ram_bytes : int;
}

let total_cores t = t.sockets * t.numa_nodes_per_socket * t.cores_per_numa_node

let numa_nodes t = t.sockets * t.numa_nodes_per_socket

type cost_model = {
  copy_rate : float;
  promote_rate : float;
  promote_freelist_rate : float;
  mark_rate : float;
  sweep_rate : float;
  compact_rate : float;
  card_scan_rate : float;
  root_scan_us_per_thread : float;
  gc_fixed_us : float;
  safepoint_base_us : float;
  safepoint_per_thread_us : float;
  sync_sigma : float;
  numa_remote_factor : float;
  tlab_refill_us : float;
  shared_alloc_us : float;
  contention_us_per_thread : float;
  locality_bytes : float;
      (* working-set size beyond which per-byte GC work degrades: caches,
         TLBs and local NUMA memory stop covering the heap, and remote
         scanning/copying dominates (Gidra et al.) *)
  satb_barrier_factor : float;
      (* mutator slowdown while a concurrent mark with an SATB write
         barrier is active (pre-write logging + dirty-card traffic) *)
  load_barrier_factor : float;
      (* mutator slowdown while concurrent relocation is in flight and
         every reference load runs through a colored-pointer-style test *)
  load_barrier_slow_us : float;
      (* one load-barrier slow path: forwarding-table lookup plus the
         self-healing store that remaps the referencing slot *)
  flip_fixed_us : float;
      (* fixed cost of a pauseless collector's flip safepoint (phase
         change handshake), deliberately sub-ms class *)
}

type t = {
  topology : topology;
  cost : cost_model;
  gc_threads : int;
  conc_gc_threads : int;
  speedup_gc : float;
  speedup_conc : float;
}

(* The raw speedup law, shared by [create] (which caches the two worker
   counts every pause uses) and [parallel_speedup] (the general entry). *)
let speedup_raw topology (cost : cost_model) n =
  let n = Int.max 1 n in
  let sigma = cost.sync_sigma in
  let base = float_of_int n /. (1.0 +. (sigma *. float_of_int (n - 1))) in
  let per_node = topology.cores_per_numa_node in
  if n <= per_node then base
  else begin
    (* Workers span NUMA nodes: remote scanning and copying eat into the
       speedup.  We keep the within-node speedup and discount the excess. *)
    let local = float_of_int per_node /. (1.0 +. (sigma *. float_of_int (per_node - 1))) in
    let excess = base -. local in
    local +. (excess /. cost.numa_remote_factor)
  end

let create ?gc_threads ?conc_gc_threads topology cost =
  let cores = total_cores topology in
  (* JVM defaults: ParallelGCThreads ~ 5/8 of cores on large machines,
     ConcGCThreads ~ a quarter of that. *)
  let gc_threads =
    match gc_threads with Some n -> n | None -> Int.max 1 (cores * 5 / 8)
  in
  let conc_gc_threads =
    match conc_gc_threads with
    | Some n -> n
    | None -> Int.max 1 ((gc_threads + 3) / 4)
  in
  {
    topology;
    cost;
    gc_threads;
    conc_gc_threads;
    speedup_gc = speedup_raw topology cost gc_threads;
    speedup_conc = speedup_raw topology cost conc_gc_threads;
  }

let cores t = total_cores t.topology

(* The memo hits on every stop-the-world phase ([gc_threads]) and every
   concurrent slice ([conc_gc_threads]); other counts fall through to
   the same formula, so the cached and computed paths agree bit for
   bit. *)
let parallel_speedup t n =
  if n = t.gc_threads then t.speedup_gc
  else if n = t.conc_gc_threads then t.speedup_conc
  else speedup_raw t.topology t.cost n

let time_to_safepoint t ~mutator_threads =
  t.cost.safepoint_base_us
  +. (t.cost.safepoint_per_thread_us *. float_of_int mutator_threads)

let root_scan_us t ~mutator_threads =
  (* Stacks are scanned in parallel by the GC workers. *)
  let work = t.cost.root_scan_us_per_thread *. float_of_int mutator_threads in
  work /. t.speedup_gc

let phase_us t ~rate ~workers ~bytes =
  assert (rate > 0.0);
  (* Per-byte cost degrades once the processed volume dwarfs the caches
     and local NUMA memory: a 50 GB compaction runs far below the DRAM
     streaming rate that a 200 MB one enjoys. *)
  let penalty =
    Float.min 8.0 (1.0 +. (float_of_int bytes /. t.cost.locality_bytes))
  in
  float_of_int bytes /. rate /. parallel_speedup t workers *. penalty

let alloc_overhead_us t ~tlab ~threads ~allocations ~bytes ~tlab_bytes =
  if tlab then begin
    (* One refill (shared bump + fence) every [tlab_bytes] bytes. *)
    let refills = float_of_int bytes /. float_of_int (Int.max 1 tlab_bytes) in
    refills *. t.cost.tlab_refill_us
  end
  else begin
    (* Every allocation takes the shared CAS path and pays contention
       proportional to the number of concurrently allocating threads. *)
    let per_alloc =
      t.cost.shared_alloc_us
      +. (t.cost.contention_us_per_thread
          *. float_of_int (Int.max 0 (threads - 1)))
    in
    float_of_int allocations *. per_alloc
  end

let default_cost =
  {
    copy_rate = 700.0;
    promote_rate = 350.0;
    promote_freelist_rate = 160.0;
    mark_rate = 2000.0;
    sweep_rate = 25000.0;
    compact_rate = 400.0;
    card_scan_rate = 2500.0;
    root_scan_us_per_thread = 120.0;
    gc_fixed_us = 900.0;
    safepoint_base_us = 120.0;
    safepoint_per_thread_us = 14.0;
    sync_sigma = 0.06;
    numa_remote_factor = 3.2;
    tlab_refill_us = 0.35;
    (* Per *allocation cluster* (~500 real objects): the TLAB-less path
       takes a contended CAS per real object. *)
    shared_alloc_us = 1.6;
    contention_us_per_thread = 0.04;
    locality_bytes = 4.0e9;
    (* ZGC/Shenandoah report low-single-digit steady-state throughput
       tax for the write barrier and ~10% worst-case for load barriers
       during relocation; mo-gc's journal write sits in the collector
       (Gc_journal_rc.alloc_overhead), not here. *)
    satb_barrier_factor = 1.05;
    load_barrier_factor = 1.10;
    load_barrier_slow_us = 0.12;
    flip_fixed_us = 140.0;
  }

let paper_server () =
  let topology =
    {
      sockets = 4;
      numa_nodes_per_socket = 2;
      cores_per_numa_node = 6;
      l1_kb = 1536;
      l2_kb = 6144;
      l3_mb_per_node = 12;
      ram_bytes = 64 * 1024 * 1024 * 1024;
    }
  in
  create topology default_cost

let paper_client () =
  let topology =
    {
      sockets = 2;
      numa_nodes_per_socket = 1;
      cores_per_numa_node = 8;
      l1_kb = 64;
      l2_kb = 512;
      l3_mb_per_node = 16;
      ram_bytes = 8 * 1024 * 1024 * 1024;
    }
  in
  create topology default_cost

let pp ppf t =
  Format.fprintf ppf
    "machine: %d cores (%d sockets x %d NUMA x %d cores), %d MB RAM, %d GC \
     threads, %d concurrent GC threads"
    (cores t) t.topology.sockets t.topology.numa_nodes_per_socket
    t.topology.cores_per_numa_node
    (t.topology.ram_bytes / (1024 * 1024))
    t.gc_threads t.conc_gc_threads
