module Harness = Gcperf_dacapo.Harness
module Suite = Gcperf_dacapo.Suite
module Machine = Gcperf_machine.Machine
module Gc_config = Gcperf_gc.Gc_config
module Gc_event = Gcperf_sim.Gc_event
module Vm = Gcperf_runtime.Vm
module Server = Gcperf_kvstore.Server
module Table = Gcperf_report.Table

type g1_full_row = {
  mode : string;
  total_s : float;
  max_full_pause_s : float;
}

type numa_row = { numa_factor : float; full_pause_s : float }

type tenuring_row = {
  threshold : int;
  pauses : int;
  avg_pause_s : float;
  total_pause_s : float;
}

type result = {
  g1_full : g1_full_row list;
  numa : numa_row list;
  tenuring : tenuring_row list;
}

let max_full events =
  List.fold_left
    (fun acc e ->
      if Gc_event.is_full e.Gc_event.kind then
        Float.max acc (e.Gc_event.duration_us /. 1e6)
      else acc)
    0.0 events

(* Ablation 1: G1 with a parallel full collection, on the Figure 1/2
   campaign (xalan, forced system GC). *)
let ablate_g1_full ~scope ~jobs =
  let machine = Exp_common.machine () in
  let bench = Option.get (Suite.find "xalan") in
  let iterations = Scope.scaled scope 10 in
  let one (mode, g1_parallel_full) =
    let gc =
      { (Exp_common.baseline Gc_config.G1) with Gc_config.g1_parallel_full }
    in
    let r =
      Harness.run ~seed:Exp_common.seed ~iterations machine bench ~gc
        ~system_gc:true ()
    in
    {
      mode;
      total_s = r.Harness.total_s;
      max_full_pause_s = max_full r.Harness.events;
    }
  in
  Exp_common.Pool.map_list ~jobs one
    [
      ("serial full GC (JDK8)", false);
      ("parallel full GC (ablation)", true);
    ]

(* Ablation 2: the NUMA remote-access penalty, on the stressed server's
   ParallelOld full collection. *)
let ablate_numa ~scope ~jobs =
  (* Short campaign anyway; never below 0.1 h, the ci-scope budget. *)
  let hours = Float.max 0.1 (Scope.hours scope 0.6) in
  let one numa_factor =
    let base = Machine.paper_server () in
    (* Through [create], so the cached speedups see the new factor. *)
    let machine =
      Machine.create ~gc_threads:base.Machine.gc_threads
        ~conc_gc_threads:base.Machine.conc_gc_threads base.Machine.topology
        { base.Machine.cost with Machine.numa_remote_factor = numa_factor }
    in
    let gc =
      Gc_config.default Gc_config.ParallelOld ~heap_bytes:(Exp_common.gb 64)
        ~young_bytes:(Exp_common.gb 12)
    in
    let vm = Vm.create machine gc ~seed:Exp_common.seed in
    let server =
      Server.create vm
        (Server.stress_config ~heap_bytes:gc.Gc_config.heap_bytes)
        ~seed:(Exp_common.seed + 1)
    in
    (try
       (* Pre-load close to the old generation's capacity so the run
          triggers its full collection quickly. *)
       Server.replay_commitlog server ~target_bytes:(Exp_common.gb 46);
       Server.run server ~duration_s:(hours *. 3600.0) ~ops_per_s:1500.0
         ~read_frac:0.5 ~insert_frac:0.3
     with Gcperf_gc.Gc_ctx.Out_of_memory _ -> ());
    { numa_factor; full_pause_s = max_full (Gc_event.events (Vm.events vm)) }
  in
  Exp_common.Pool.map_list ~jobs one
    [ 3.2 (* the model's default *); 1.0 (* NUMA-oblivious ideal *) ]

(* Ablation 3: tenuring-threshold sweep on h2 with a small heap. *)
let ablate_tenuring ~scope ~jobs =
  let machine = Exp_common.machine () in
  let bench = Option.get (Suite.find "h2") in
  let iterations = Scope.scaled scope 10 in
  let thresholds = [ 1; 3; 6; 12 ] in
  Exp_common.Pool.map_list ~jobs
    (fun threshold ->
      let gc =
        (* A survivor space large enough (300 MB, adaptive target 150 MB,
           survivors ~120 MB) that the threshold — not overflow and not
           the adaptive clamp — decides promotion. *)
        {
          (Gc_config.default Gc_config.ParallelOld
             ~heap_bytes:(Exp_common.gb 4)
             ~young_bytes:(Exp_common.gb 3))
          with
          Gc_config.tenuring_threshold = threshold;
        }
      in
      let r =
        Harness.run ~seed:Exp_common.seed ~iterations machine bench ~gc
          ~system_gc:false ()
      in
      let pauses = List.length r.Harness.events in
      let total =
        List.fold_left
          (fun acc e -> acc +. (e.Gc_event.duration_us /. 1e6))
          0.0 r.Harness.events
      in
      {
        threshold;
        pauses;
        avg_pause_s =
          (if pauses = 0 then 0.0 else total /. float_of_int pauses);
        total_pause_s = total;
      })
    thresholds

let run_scope ~scope ?(jobs = Exp_common.default_jobs ()) () =
  {
    g1_full = ablate_g1_full ~scope ~jobs;
    numa = ablate_numa ~scope ~jobs;
    tenuring = ablate_tenuring ~scope ~jobs;
  }

let render r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "Ablation studies (design choices from DESIGN.md, removed one at a time)\n\n";
  let t1 =
    Table.create
      ~columns:
        [
          ("G1 full-GC mode", Table.Left);
          ("xalan total (s)", Table.Right);
          ("max full pause (s)", Table.Right);
        ]
  in
  List.iter
    (fun row ->
      Table.add_row t1
        [ row.mode; Table.cell_f row.total_s; Table.cell_f row.max_full_pause_s ])
    r.g1_full;
  Buffer.add_string buf "1. G1's single-threaded full collection (JDK8)\n";
  Buffer.add_string buf (Table.render t1);
  let t2 =
    Table.create
      ~columns:
        [
          ("NUMA remote factor", Table.Right);
          ("stressed-server max full pause (s)", Table.Right);
        ]
  in
  List.iter
    (fun row ->
      Table.add_row t2
        [ Table.cell_f ~decimals:1 row.numa_factor; Table.cell_f row.full_pause_s ])
    r.numa;
  Buffer.add_string buf "\n2. NUMA remote-access penalty\n";
  Buffer.add_string buf (Table.render t2);
  let t3 =
    Table.create
      ~columns:
        [
          ("tenuring threshold", Table.Right);
          ("#pauses", Table.Right);
          ("avg pause (s)", Table.Right);
          ("total pause (s)", Table.Right);
        ]
  in
  List.iter
    (fun row ->
      Table.add_row t3
        [
          string_of_int row.threshold;
          string_of_int row.pauses;
          Table.cell_f ~decimals:3 row.avg_pause_s;
          Table.cell_f ~decimals:3 row.total_pause_s;
        ])
    r.tenuring;
  Buffer.add_string buf "\n3. Tenuring threshold (h2, 4 GB heap, 3 GB young)\n";
  Buffer.add_string buf (Table.render t3);
  Buffer.contents buf
