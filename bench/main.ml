(* Bechamel harness.

   Two groups:

   - "paper": one benchmark per table/figure of the study — each run
     regenerates the artifact (at ci scope, so the full suite stays in
     the minutes range).  `gcperf run <id>` produces the full-scale
     artifact.
   - "micro": collector primitives (allocation, young collection, full
     collection, concurrent cycle, client generation) so regressions in
     the simulator itself are visible independently of the campaigns,
     then the telemetry budget check ([telemetry_overhead_pct]), which
     makes the process exit 1 when it fails.

   Plus "policy" (adaptive-sizing overhead against the fixed baseline),
   "exec" (worker-pool fan-out), "fault" (fault injector, degraded
   gateway and the resilient client session), "cluster" (consistent-
   hash placement and the fan-out coordinator) and "kvstore" (the
   server's update path).

   Options:

   - [--only micro,policy,exec,fault,cluster,kvstore,concurrent,distill,
     calibrate,paper,server] restricts the groups that run;
   - [--quota SECONDS] overrides the per-test measurement quota;
   - [--json PATH] writes the per-benchmark ns/run estimates as a JSON
     object: [jobs] and [recommended_domain_count] metadata plus a
     [results] list of [{"name": ..., "ns_per_run": ...}] records (the
     perf trajectory file BENCH_micro.json is produced this way). *)

(* The host's monotonic clock in ns, named before [Toolkit] shadows its
   module with the bechamel measure of the same name. *)
let now_ns = Monotonic_clock.now

open Bechamel
open Toolkit

module Vm = Gcperf_runtime.Vm
module Machine = Gcperf_machine.Machine
module Gc_config = Gcperf_gc.Gc_config
module Telemetry = Gcperf_telemetry.Telemetry
module Gc_event = Gcperf_sim.Gc_event
module Cost = Gcperf_telemetry.Cost
module Distill = Gcperf_distill.Distill

let mb = 1024 * 1024
let machine = Machine.paper_server ()

(* --- paper artifacts ------------------------------------------------- *)

let experiment_tests =
  List.map
    (fun id ->
      Test.make ~name:id
        (Staged.stage (fun () ->
             let e = Option.get (Gcperf.Experiments.find id) in
             ignore
               (e.text (Gcperf.Experiment.artifact ~scope:Gcperf.Scope.ci e)))))
    [ "table2"; "table3"; "table4"; "fig1"; "fig2"; "fig3"; "table8" ]

(* The client-server campaigns are the heaviest; bench them through
   scaled-down runs so the whole harness stays tractable. *)
let server_tests =
  [
    Test.make ~name:"fig4-cms-server"
      (Staged.stage (fun () ->
           ignore
             (Gcperf.Exp_server.run_server_scope ~scope:Gcperf.Scope.ci
                ~kind:Gc_config.Cms ~stress:true ~hours:0.5 ())));
    Test.make ~name:"fig4-g1-server"
      (Staged.stage (fun () ->
           ignore
             (Gcperf.Exp_server.run_server_scope ~scope:Gcperf.Scope.ci
                ~kind:Gc_config.G1 ~stress:true ~hours:0.5 ())));
    Test.make ~name:"server-po-default"
      (Staged.stage (fun () ->
           ignore
             (Gcperf.Exp_server.run_server_scope ~scope:Gcperf.Scope.ci
                ~kind:Gc_config.ParallelOld ~stress:false ~hours:0.5 ())));
    Test.make ~name:"fig5-table567-client"
      (Staged.stage (fun () ->
           (* Client generation + latency statistics against a synthetic
              pause timeline (the server side is benched above). *)
           let pauses =
             Array.init 40 (fun i ->
                 let s = 10.0 +. (30.0 *. float_of_int i) in
                 (s, s +. 2.0))
           in
           let w =
             { Gcperf_ycsb.Client.paper_workload with duration_s = 1200.0 }
           in
           let pts =
             Gcperf_ycsb.Client.run w ~pauses ~db_timeline:[||] ~seed:1
           in
           ignore (Gcperf_ycsb.Client.report pts ~kind:Gcperf_ycsb.Client.Read)));
  ]

(* --- micro ------------------------------------------------------------ *)

let vm_for kind =
  let vm =
    Vm.create machine
      (Gc_config.default kind ~heap_bytes:(256 * mb) ~young_bytes:(64 * mb))
      ~seed:7
  in
  let th = Vm.spawn_thread vm in
  (vm, th)

let g1_vm telemetry =
  let vm =
    Vm.create ~telemetry machine
      (Gc_config.default Gc_config.G1 ~heap_bytes:(256 * mb)
         ~young_bytes:(64 * mb))
      ~seed:7
  in
  (vm, Vm.spawn_thread vm)

(* The young-GC loop of the G1 benches: about 52 MB of dropped data, one
   young collection per call. *)
let young_gc_g1_loop vm th =
  for _ = 1 to 100 do
    let id = Vm.alloc vm th ~size:(512 * 1024) ~lifetime:`Permanent in
    Vm.drop_root vm th id
  done

(* The <5% overhead budget of an enabled registry on the hottest
   collection path (DESIGN.md §8).  Two bechamel benches cannot check it:
   each runs in its own stretch of the process, and on a shared host the
   ratio of young-gc-g1-telemetry to young-gc-g1 read 0.89–1.47x for one
   binary.  Here the same loop runs on two VMs, telemetry off and on, in
   interleaved rounds that alternate which side goes first, so both see
   the same host; the overhead is the median of the per-round ratios, in
   percent. *)
let telemetry_budget_pct = 5.0

let telemetry_overhead_pct ~rounds ~calls =
  let side telemetry =
    let vm, th = g1_vm telemetry in
    fun () ->
      let t0 = now_ns () in
      for _ = 1 to calls do
        young_gc_g1_loop vm th
      done;
      let ns = Int64.to_float (Int64.sub (now_ns ()) t0) in
      (* Outside the timing: bound the gauge series. *)
      Telemetry.clear telemetry;
      ns
  in
  let off = side (Telemetry.create ~enabled:false ())
  and on = side (Telemetry.create ~enabled:true ()) in
  let ratios =
    Array.init rounds (fun i ->
        if i land 1 = 0 then
          let t_off = off () in
          on () /. t_off
        else
          let t_on = on () in
          t_on /. off ())
  in
  Array.sort Float.compare ratios;
  100.0 *. (ratios.(rounds / 2) -. 1.0)

(* The trace kernel alone: one full Trace_live closure over a shared
   50k-object graph from 256 seed roots. *)
let trace_closure_test =
  let module Os = Gcperf_heap.Obj_store in
  let module Ivec = Gcperf_util.Int_vec in
  let s = Os.create () in
  let n = 50_000 in
  let ids = Array.init n (fun _ -> Os.alloc s ~size:64 ~loc:Os.Eden) in
  let state = ref 11 in
  let rand m =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state mod m
  in
  Array.iter
    (fun id ->
      for _ = 1 to 3 do
        Os.add_ref s ~from:id ~to_:ids.(rand n)
      done)
    ids;
  let marked = Ivec.create () and stack = Ivec.create () in
  Test.make ~name:"trace-closure"
    (Staged.stage (fun () ->
         Ivec.clear marked;
         Ivec.clear stack;
         Os.begin_trace s;
         for i = 0 to 255 do
           let id = ids.(i * 64) in
           Os.mark s id;
           Ivec.push marked id;
           Ivec.push stack id
         done;
         Os.sequential_finish s ~pred:Os.Trace_live ~marked ~stack))

(* The relocation kernel alone: plan all 50k objects to their current
   location (so the move is idempotent and every run sees the same
   store) and apply the plan through [finish_relocate]. *)
let relocate_move_test =
  let module Os = Gcperf_heap.Obj_store in
  let s = Os.create () in
  let n = 50_000 in
  let ids = Array.init n (fun _ -> Os.alloc s ~size:64 ~loc:Os.Old) in
  Test.make ~name:"relocate-move"
    (Staged.stage (fun () ->
         Os.plan_clear s;
         Array.iter (fun id -> Os.plan_push_old s id ~age:3) ids;
         ignore (Os.finish_relocate s)))

(* The death queue as a dacapo run drives it, under h2's profile (the
   stable subset's largest pending set).  Keys follow [Vm.alloc] and
   [Mutator.sample_lifetime]: every allocation advances the allocated-
   bytes clock by a log-normal size (clamped as [Mutator.sample_size]
   does), and a dying object's key is that clock plus an exponential
   lifetime, so keys rarely tie.  After each allocation the due keys are
   drained as [Vm.process_deaths] does, which holds the queue at its
   natural depth (about 390 pending).  The draws are made once, outside
   the timing; one run replays 512 allocations of the cycled trace. *)
let death_queue_test =
  let module Heapq = Gcperf_util.Heapq in
  let module Prng = Gcperf_util.Prng in
  let module P = Gcperf_workload.Profile in
  let profile = (Option.get (Gcperf_dacapo.Suite.find "h2")).profile in
  let l = profile.P.lifetime and { P.mean_bytes; sigma } = profile.P.size in
  let trace_len = 8192 in
  let prng = Prng.create 16 in
  let mean = float_of_int mean_bytes in
  let mu = log mean -. (sigma *. sigma /. 2.0) in
  let sizes =
    Array.init trace_len (fun _ ->
        let s = Prng.lognormal prng ~mu ~sigma in
        int_of_float (Float.max (mean /. 8.0) (Float.min (mean *. 8.0) s)))
  in
  (* -1: the object never dies (iteration-scoped or permanent). *)
  let lifetimes =
    Array.init trace_len (fun _ ->
        let u = Prng.float prng 1.0 in
        let dies m = max 1 (int_of_float (Prng.exponential prng m)) in
        if u < l.P.short_frac then dies l.P.short_mean_bytes
        else if u < l.P.short_frac +. l.P.medium_frac then
          dies l.P.medium_mean_bytes
        else if
          u
          < l.P.short_frac +. l.P.medium_frac +. l.P.iteration_frac
            +. l.P.permanent_frac
        then -1
        else dies l.P.short_mean_bytes)
  in
  let q = Heapq.create () and allocated = ref 0 and pos = ref 0 in
  let rec drain () =
    match Heapq.min_key q with
    | Some key when key <= !allocated ->
        ignore (Heapq.pop q);
        drain ()
    | Some _ | None -> ()
  in
  let allocate n =
    for _ = 1 to n do
      let j = !pos in
      allocated := !allocated + sizes.(j);
      if lifetimes.(j) >= 0 then
        Heapq.push q (!allocated + lifetimes.(j)) ((j lsl 16) lor 1);
      drain ();
      pos := (j + 1) land (trace_len - 1)
    done
  in
  (* Warm up to the steady state: several medium lifetimes' worth. *)
  allocate (4 * trace_len);
  Test.make ~name:"death-queue" (Staged.stage (fun () -> allocate 512))

let micro_tests =
  [
    Test.make ~name:"alloc-tlab"
      (let vm, th = vm_for Gc_config.ParallelOld in
       Staged.stage (fun () ->
           (* Drop the root right away: lifetimes only retire inside
              [Vm.step], which a micro-benchmark loop never reaches. *)
           let id = Vm.alloc vm th ~size:4096 ~lifetime:`Permanent in
           Vm.drop_root vm th id));
    Test.make ~name:"young-gc-parallel-old"
      (let vm, th = vm_for Gc_config.ParallelOld in
       Staged.stage (fun () ->
           (* ~52 MB of dropped data: one young collection per call. *)
           for _ = 1 to 100 do
             let id = Vm.alloc vm th ~size:(512 * 1024) ~lifetime:`Permanent in
             Vm.drop_root vm th id
           done));
    Test.make ~name:"young-gc-g1"
      (let vm, th = vm_for Gc_config.G1 in
       Staged.stage (fun () -> young_gc_g1_loop vm th));
    Test.make ~name:"young-gc-g1-telemetry"
      (* Same loop with an enabled registry riding along: the absolute
         cost of the traced path.  Its budget against the untraced loop
         is checked by [telemetry_overhead_pct], not by this pair. *)
      (let telemetry = Telemetry.create ~enabled:true () in
       let vm, th = g1_vm telemetry in
       let calls = ref 0 in
       Staged.stage (fun () ->
           young_gc_g1_loop vm th;
           (* Bound the gauge series so long quotas measure recording,
              not the memory of an unbounded trace. *)
           incr calls;
           if !calls land 0x3FF = 0 then Telemetry.clear telemetry));
    Test.make ~name:"record-pause"
      (* Raw cost of logging one pause: six charged phases, a plan/move
         split and the event row — the per-pause write every collection
         pays, telemetry on or off. *)
      (let log = ref (Gc_event.create ()) in
       let calls = ref 0 in
       Staged.stage (fun () ->
           let l = !log in
           Gc_event.phase l Gc_event.Safepoint 800.0;
           Gc_event.phase l Gc_event.Root_scan 900.0;
           Gc_event.phase l Gc_event.Fixed 900.0;
           Gc_event.phase l Gc_event.Card_scan 0.0;
           Gc_event.phase l Gc_event.Copy 9745.6;
           Gc_event.phase l Gc_event.Promote 0.0;
           Gc_event.sub l Gc_event.Plan 1218.2;
           Gc_event.sub l Gc_event.Move 8527.4;
           ignore
             (Gc_event.record l ~start_us:1.0e6 ~kind:Gc_event.Young
                ~collector:"G1GC" ~reason:"eden target reached"
                ~young_before:(64 * mb) ~young_after:(4 * mb)
                ~old_before:(16 * mb) ~old_after:(17 * mb) ~promoted:mb);
           (* Bound the log so long quotas measure recording, not the
              memory of an unbounded trace. *)
           incr calls;
           if !calls land 0xFFFF = 0 then log := Gc_event.create ()));
    Test.make ~name:"full-gc-serial"
      (let vm, th = vm_for Gc_config.Serial in
       let _keep =
         List.init 32 (fun _ ->
             Vm.alloc vm th ~size:(512 * 1024) ~lifetime:`Permanent)
       in
       Staged.stage (fun () -> Vm.system_gc vm));
    Test.make ~name:"cms-concurrent-tick"
      (let vm, th = vm_for Gc_config.Cms in
       let _hoard =
         List.init 380 (fun _ ->
             Vm.alloc vm th ~size:(512 * 1024) ~lifetime:`Permanent)
       in
       Staged.stage (fun () -> Vm.step vm ~dt_us:1000.0 (fun _ -> ())));
    Test.make ~name:"zipf-sample"
      (let prng = Gcperf_util.Prng.create 3 in
       Staged.stage (fun () ->
           ignore (Gcperf_util.Prng.zipf prng ~n:1_000_000 ~theta:0.99)));
    Test.make ~name:"latency-report-100k"
      (let prng = Gcperf_util.Prng.create 4 in
       let pts =
         Array.init 100_000 (fun _ ->
             (Gcperf_util.Prng.exponential prng 2.0, Gcperf_util.Prng.bool prng))
       in
       Staged.stage (fun () -> ignore (Gcperf_stats.Stats.latency_report pts)));
    trace_closure_test;
    relocate_move_test;
    death_queue_test;
  ]

(* --- policy: adaptive sizing overhead --------------------------------- *)

(* The pair bounds the ergonomics tax on the collection path: the same
   allocation-heavy loop through [Vm.step], once with the fixed-size
   default and once with [-XX:+UseAdaptiveSizePolicy] attached.  The
   delta is the per-safepoint cost of observe/decide/apply plus whatever
   resizes the policy actually issues while converging. *)
let policy_vm ~adaptive =
  let cfg =
    Gc_config.default Gc_config.ParallelOld ~heap_bytes:(256 * mb)
      ~young_bytes:(64 * mb)
  in
  let vm = Vm.create machine { cfg with Gc_config.adaptive } ~seed:7 in
  let th = Vm.spawn_thread vm in
  (vm, th)

let policy_step (vm, th) =
  for _ = 1 to 100 do
    let id = Vm.alloc vm th ~size:(512 * 1024) ~lifetime:`Permanent in
    Vm.drop_root vm th id
  done;
  Vm.step vm ~dt_us:1000.0 (fun _ -> ())

let policy_tests =
  [
    Test.make ~name:"step-fixed"
      (let h = policy_vm ~adaptive:false in
       Staged.stage (fun () -> policy_step h));
    Test.make ~name:"step-adaptive"
      (let h = policy_vm ~adaptive:true in
       Staged.stage (fun () -> policy_step h));
  ]

(* --- exec: the worker pool ------------------------------------------- *)

module Pool = Gcperf_exec.Pool

(* One pool cell: a self-contained simulated run — fresh VM, ~52 MB of
   young garbage per round, 40 rounds.  Heavy enough that fan-out pays on
   multicore hardware, small enough to keep the bench in milliseconds. *)
let pool_cell _i =
  let vm =
    Vm.create machine
      (Gc_config.default Gc_config.ParallelOld ~heap_bytes:(256 * mb)
         ~young_bytes:(64 * mb))
      ~seed:7
  in
  let th = Vm.spawn_thread vm in
  for _ = 1 to 40 do
    for _ = 1 to 100 do
      let id = Vm.alloc vm th ~size:(512 * 1024) ~lifetime:`Permanent in
      Vm.drop_root vm th id
    done
  done;
  Vm.now_s vm

let pool_cells = Array.init 16 (fun i -> i)

let exec_tests =
  let map_cells ~jobs =
    Test.make
      ~name:(Printf.sprintf "pool-cells-jobs%d" jobs)
      (Staged.stage (fun () ->
           ignore (Pool.map_cells ~jobs pool_cell pool_cells)))
  in
  [
    (* jobs=1 is the sequential baseline; the jobs=2/4 entries measure
       the same 16 cells through the pool, so the ratio to jobs=1 is the
       pool's speedup (~1x on a single-core host, where the domains
       time-share one CPU). *)
    map_cells ~jobs:1;
    map_cells ~jobs:2;
    map_cells ~jobs:4;
    Test.make ~name:"pool-overhead-jobs4"
      (* Spawn/join cost alone: 16 trivial cells through 4 domains. *)
      (let cells = Array.init 16 (fun i -> i) in
       Staged.stage (fun () ->
           ignore (Pool.map_cells ~jobs:4 (fun i -> i * i) cells)));
  ]

(* --- fault: injector, gateway and resilient client -------------------- *)

module Profile = Gcperf_fault.Profile
module Injector = Gcperf_fault.Injector
module Gateway = Gcperf_kvstore.Gateway
module Resilient = Gcperf_ycsb.Resilient

(* The synthetic pause timeline shared with fig5-table567-client: a 2 s
   stop-the-world pause every 30 s. *)
let fault_pauses =
  Array.init 40 (fun i ->
      let s = 10.0 +. (30.0 *. float_of_int i) in
      (s, s +. 2.0))

let fault_tests =
  [
    Test.make ~name:"injector-outcome"
      (* One fault draw: four PRNG samples plus the profile compares —
         the per-attempt tax every session request pays. *)
      (let inj =
         Injector.create ~profile:Profile.storm ~seed:5 ~pauses:fault_pauses
       in
       Staged.stage (fun () -> ignore (Injector.outcome inj)));
    Test.make ~name:"gateway-offer-1k"
      (* 1000 admissions through the degraded gateway, spanning several
         pauses so shedding and fast rejection both trigger. *)
      (Staged.stage (fun () ->
           let gw = Gateway.create Gateway.degraded ~pauses:fault_pauses in
           for i = 0 to 999 do
             ignore
               (Gateway.offer gw
                  ~now_s:(float_of_int i *. 0.12)
                  ~service_ms:1.0)
           done));
    Test.make ~name:"resilient-session-storm"
      (* A full five-virtual-minute session under the worst profile with
         the whole resilience stack on: the end-to-end cost of one
         exp_faults grid cell's client side. *)
      (let w =
         { Gcperf_ycsb.Client.paper_workload with duration_s = 300.0 }
       in
       Staged.stage (fun () ->
           ignore
             (Resilient.run w ~profile:Profile.storm
                ~resilience:Resilient.paper_defaults
                ~gateway:Gateway.degraded ~pauses:fault_pauses
                ~db_timeline:[||] ~seed:5)));
  ]

(* --- cluster ring ------------------------------------------------------ *)

module Ring = Gcperf_cluster.Ring
module Cluster_node = Gcperf_cluster.Node
module Coordinator = Gcperf_cluster.Coordinator

(* A synthetic node timeline — 50 ms stop-the-world every 10 s, 0.5 %
   duty — so the coordinator bench measures the event loop, not VM
   generation. *)
let cluster_timeline =
  {
    Cluster_node.collector = "bench";
    node_seed = 0;
    duration_s = 120.0;
    intervals =
      Array.init 12 (fun i ->
          let s = (float_of_int i +. 0.5) *. 10.0 in
          (s, s +. 0.05));
    db_timeline = [||];
    pause_fraction = 0.005;
    oom = false;
  }

let cluster_tests =
  [
    Test.make ~name:"ring-create-64"
      (* Build the 64-node, 4096-point ring: the per-cell setup cost. *)
      (Staged.stage (fun () -> ignore (Ring.create ~nodes:64 ~replication:3 ())));
    Test.make ~name:"ring-replicas-10k"
      (* 10k replica-set lookups: the placement cost every sub-request
         pays (binary search + clockwise distinct-node walk). *)
      (let ring = Ring.create ~nodes:64 ~replication:3 () in
       Staged.stage (fun () ->
           for k = 0 to 9_999 do
             ignore (Ring.replicas ring ~key:k)
           done));
    Test.make ~name:"coordinator-session-2min"
      (* A two-virtual-minute fan-out-8 session over an 8-node ring on
         synthetic timelines: one ci-scale grid cell minus the VMs. *)
      (let w =
         {
           Gcperf_ycsb.Client.paper_workload with
           duration_s = 120.0;
           ops_per_s = 50.0;
         }
       in
       let config =
         {
           Coordinator.default with
           Coordinator.workload = w;
           fanout = 8;
           keyspace = 100_000;
         }
       in
       Staged.stage (fun () ->
           let ring = Ring.create ~nodes:8 ~replication:3 () in
           let nodes =
             Array.init 8 (fun id ->
                 Cluster_node.create ~id cluster_timeline ~profile:Profile.none
                   ~gateway:Gateway.unbounded ~seed:(100 + id))
           in
           ignore (Coordinator.run config ~ring ~nodes ~seed:9)));
  ]

(* --- kvstore: the server's write path ------------------------------------ *)

let kvstore_tests =
  let module Server = Gcperf_kvstore.Server in
  [
    Test.make ~name:"update-path"
      (* 100 updates against a store replayed to 32 MB of records: the
         key-column lookup, the record install, the overwrite's reference
         removal and the allocation (with its young collections) they
         cause.  The 512 MB flush threshold keeps the commit log bounded
         however long the run.  No write transients: their lifetimes only
         retire inside [Vm.step], which this loop never reaches. *)
      (let vm =
         Vm.create machine
           (Gc_config.default Gc_config.ParallelOld ~heap_bytes:(2048 * mb)
              ~young_bytes:(512 * mb))
           ~seed:11
       in
       let config =
         {
           Server.default_config with
           Server.memtable_flush_bytes = 512 * mb;
           write_transient_bytes = 0;
           service_threads = 4;
         }
       in
       let s = Server.create vm config ~seed:3 in
       Server.replay_commitlog s ~target_bytes:(32 * mb);
       Staged.stage (fun () ->
           for _ = 1 to 100 do
             Server.perform s Server.Update
           done));
  ]

(* --- concurrent collector family --------------------------------------- *)

(* Journal fold over 100k pre-built entries against 50k rc cells. *)
let journal_fold_test =
  let module Journal = Gcperf_gc.Journal in
  let j = Journal.create () in
  let cells = 50_000 in
  let state = ref 17 in
  let rand m =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state mod m
  in
  for _ = 1 to 100_000 do
    Journal.append j (rand cells) (if rand 2 = 0 then 1 else -1)
  done;
  let rc = Array.make cells 0 in
  Test.make ~name:"journal-fold"
    (Staged.stage (fun () -> ignore (Journal.fold j ~rc)))

let concurrent_tests =
  [
    Test.make ~name:"mark-overhead"
      (* Allocation churn under the concurrent region collector: the
         SATB/load-barrier mutator tax plus the tick-driven concurrent
         mark and relocation machinery, end to end. *)
      (let vm, th = vm_for Gc_config.Concurrent_regions in
       Staged.stage (fun () ->
           for _ = 1 to 1000 do
             let id = Vm.alloc vm th ~size:4096 ~lifetime:`Permanent in
             Vm.drop_root vm th id
           done));
    (* The same churn at the server geometry (64 GB heap, 12 GB young,
       2048 regions of 32 MB) with the collector Idle throughout: what
       remains is the allocation path itself, including the start-mark
       occupancy check every allocation makes.  Each resource's release
       runs outside the timing and collects the accumulated garbage once
       it passes 1 GB, far below the 45% marking threshold. *)
    (let vm =
       Vm.create machine
         (Gc_config.default Gc_config.Concurrent_regions
            ~heap_bytes:(64 * 1024 * mb) ~young_bytes:(12 * 1024 * mb))
         ~seed:7
     in
     let th = Vm.spawn_thread vm in
     let heap_used = (Vm.collector vm).Gcperf_gc.Collector.heap_used in
     Test.make_with_resource ~name:"regions-alloc-64g" Test.multiple
       ~allocate:(fun () -> ())
       ~free:(fun () -> if heap_used () > 1024 * mb then Vm.system_gc vm)
       (Staged.stage (fun () ->
            for _ = 1 to 1000 do
              let id = Vm.alloc vm th ~size:4096 ~lifetime:`Permanent in
              Vm.drop_root vm th id
            done)));
    Test.make ~name:"load-barrier-read"
      (* The self-healing load barrier: 10k reads over a store where a
         tenth of the objects are forwarded — the first read of each
         forwarded object takes the healing slow path, every other read
         the epoch-stamped fast path. *)
      (let module Os = Gcperf_heap.Obj_store in
       let s = Os.create () in
       let n = 10_000 in
       let ids = Array.init n (fun _ -> Os.alloc s ~size:64 ~loc:Os.Old) in
       Staged.stage (fun () ->
           Os.fwd_begin s;
           Array.iteri
             (fun i id -> if i mod 10 = 0 then Os.fwd_record s id)
             ids;
           Array.iter (fun id -> ignore (Os.fwd_read s id)) ids));
    journal_fold_test;
  ]

(* --- calibrate: pinned host-speed probe -------------------------------- *)

(* A fixed, allocation-free integer loop whose only variable is the
   host's single-thread speed.  bench_gate --calibrate divides the
   current probe measurement by the baseline's and scales every
   committed ns/run by that ratio before applying tolerances, so the
   gate survives runner-hardware drift without loosening the 2x bound.
   Keep this loop frozen: changing it invalidates every committed
   baseline at once. *)
let calibrate_tests =
  [
    Test.make ~name:"probe-spin"
      (Staged.stage (fun () ->
           let x = ref 0x2545F491 in
           for _ = 1 to 4096 do
             x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
             x := !x lxor (!x lsr 13)
           done;
           ignore (Sys.opaque_identity !x)));
  ]

(* --- distill: LBO cost extraction -------------------------------------- *)

let distill_tests =
  [
    Test.make ~name:"cost-extract"
      (* Distilling one recorded run: four counter reads plus a per-phase
         sweep over the pause log (256 pauses here — a small-heap ci
         cell's order of magnitude). *)
      (let telemetry = Telemetry.create ~enabled:true () in
       let log = Gc_event.create () in
       for _ = 1 to 256 do
         Gc_event.phase log Gc_event.Safepoint 800.0;
         Gc_event.phase log Gc_event.Root_scan 900.0;
         Gc_event.phase log Gc_event.Fixed 900.0;
         Gc_event.phase log Gc_event.Copy 9745.6;
         ignore
           (Gc_event.record log ~start_us:1.0e6 ~kind:Gc_event.Young
              ~collector:"G1GC" ~reason:"eden target reached"
              ~young_before:(64 * mb) ~young_after:(4 * mb)
              ~old_before:(16 * mb) ~old_after:(17 * mb) ~promoted:mb)
       done;
       Telemetry.incr telemetry Cost.mutator_raw_us 3.5e7;
       Telemetry.incr telemetry Cost.alloc_tax_us 1.2e5;
       Telemetry.incr telemetry Cost.barrier_tax_us 2.3e5;
       Telemetry.incr telemetry Cost.steal_tax_us 1.4e5;
       Staged.stage (fun () -> ignore (Distill.of_run telemetry log)));
    Test.make ~name:"step-tax"
      (* The per-quantum accounting the distillation adds to [Vm.step]
         when telemetry is on, under the collector whose barrier tax it
         splits.  Pair with micro/cms-concurrent-tick (telemetry off) to
         bound the overhead. *)
      (let telemetry = Telemetry.create ~enabled:true () in
       let vm =
         Vm.create ~telemetry machine
           (Gc_config.default Gc_config.Concurrent_regions
              ~heap_bytes:(256 * mb) ~young_bytes:(64 * mb))
           ~seed:7
       in
       let th = Vm.spawn_thread vm in
       let _hoard =
         List.init 380 (fun _ ->
             Vm.alloc vm th ~size:(512 * 1024) ~lifetime:`Permanent)
       in
       let calls = ref 0 in
       Staged.stage (fun () ->
           Vm.step vm ~dt_us:1000.0 (fun _ -> ());
           (* Bound the gauge series the step samples into. *)
           incr calls;
           if !calls land 0x3FF = 0 then Telemetry.clear telemetry));
  ]

(* --- driver ------------------------------------------------------------ *)

let benchmark tests ~quota_s ~limit =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit ~quota:(Time.second quota_s) ~stabilize:false
      ~start:1 ()
  in
  let raw = Benchmark.all cfg instances tests in
  Analyze.all ols Instance.monotonic_clock raw

(* Flattens an analysis into sorted (name, ns/run) rows. *)
let rows_of results =
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let est =
        match Analyze.OLS.estimates ols with
        | Some [ est ] -> est
        | Some _ | None -> Float.nan
      in
      rows := (name, est) :: !rows)
    results;
  List.sort compare !rows

let print_results label rows =
  Printf.printf "== %s ==\n%!" label;
  List.iter
    (fun (name, est) ->
      if Float.is_nan est then Printf.printf "  %-32s (no estimate)\n" name
      else Printf.printf "  %-32s %12.3f ms/run\n" name (est /. 1e6))
    rows;
  print_newline ()

(* The results array keeps the flat {"name", "ns_per_run"} records the
   gate scans for; the wrapper records how the numbers were taken.
   Measurements always run sequentially ("jobs": 1 — the jobs-suffixed
   entries encode their own fan-out in their names), and
   "recommended_domain_count" says how many cores the host offered, so
   a reader can tell a real jobs4 speedup from domain time-sharing on a
   single-core runner. *)
let write_json path rows ~telemetry_overhead =
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"jobs\": 1,\n  \"recommended_domain_count\": %d,\n"
    (Domain.recommended_domain_count ());
  Option.iter
    (Printf.fprintf oc "  \"telemetry_overhead_pct\": %.2f,\n")
    telemetry_overhead;
  output_string oc "  \"results\": [\n";
  List.iteri
    (fun i (name, est) ->
      Printf.fprintf oc "    {\"name\": %S, \"ns_per_run\": %s}%s\n" name
        (if Float.is_nan est then "null" else Printf.sprintf "%.3f" est)
        (if i = List.length rows - 1 then "" else ","))
    rows;
  output_string oc "  ]\n}\n";
  close_out oc;
  Printf.printf "wrote %s\n%!" path

(* --- options ----------------------------------------------------------- *)

type opts = {
  json : string option;
  only : string list;  (* empty = all groups *)
  quota : float option;
  limit : int option;
}

let usage () =
  prerr_endline
    "usage: main.exe \
     [--only \
     micro,policy,exec,fault,cluster,concurrent,distill,calibrate,paper,server] \
     [--quota SECONDS] [--limit RUNS] [--json PATH]";
  exit 2

let parse_opts () =
  let opts = ref { json = None; only = []; quota = None; limit = None } in
  let rec go = function
    | [] -> ()
    | "--json" :: path :: rest ->
        opts := { !opts with json = Some path };
        go rest
    | "--only" :: groups :: rest ->
        opts := { !opts with only = String.split_on_char ',' groups };
        go rest
    | "--quota" :: s :: rest -> (
        match float_of_string_opt s with
        | Some q when q > 0.0 ->
            opts := { !opts with quota = Some q };
            go rest
        | Some _ | None -> usage ())
    | "--limit" :: s :: rest -> (
        match int_of_string_opt s with
        | Some n when n > 0 ->
            opts := { !opts with limit = Some n };
            go rest
        | Some _ | None -> usage ())
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  !opts

let () =
  let opts = parse_opts () in
  let enabled g = opts.only = [] || List.mem g opts.only in
  let quota default = Option.value opts.quota ~default in
  let limit default = Option.value opts.limit ~default in
  let all_rows = ref [] in
  let run_group g label tests ~quota_s ~lim =
    if enabled g then begin
      let rows =
        rows_of
          (benchmark
             (Test.make_grouped ~name:g tests)
             ~quota_s:(quota quota_s) ~limit:(limit lim))
      in
      print_results label rows;
      all_rows := !all_rows @ rows
    end
  in
  run_group "micro" "micro (simulator primitives)" micro_tests ~quota_s:0.5
    ~lim:500;
  let telemetry_overhead =
    if enabled "micro" then begin
      let rounds = 301 in
      let measure () = telemetry_overhead_pct ~rounds ~calls:100 in
      (* The smoke run of this binary is part of the default build, so
         one unlucky reading must not fail it: a reading at or over
         budget is taken again and the lower one counts. *)
      let pct = measure () in
      let pct =
        if pct >= telemetry_budget_pct then Float.min pct (measure ())
        else pct
      in
      Printf.printf
        "telemetry overhead on young-gc-g1: %+.1f%% (median of %d \
         interleaved rounds; budget <%.0f%%)\n\n%!"
        pct rounds telemetry_budget_pct;
      Some pct
    end
    else None
  in
  run_group "policy" "policy (adaptive sizing overhead)" policy_tests
    ~quota_s:0.5 ~lim:500;
  run_group "exec" "exec (worker pool fan-out)" exec_tests ~quota_s:0.5
    ~lim:50;
  run_group "fault" "fault (injector, gateway, resilient client)" fault_tests
    ~quota_s:0.5 ~lim:50;
  run_group "cluster" "cluster (ring placement, fan-out coordinator)"
    cluster_tests ~quota_s:0.5 ~lim:50;
  run_group "kvstore" "kvstore (server write path)" kvstore_tests ~quota_s:0.5
    ~lim:200;
  run_group "concurrent" "concurrent family (barriers, journal fold)"
    concurrent_tests ~quota_s:0.5 ~lim:200;
  run_group "distill" "distill (LBO cost extraction)" distill_tests
    ~quota_s:0.5 ~lim:200;
  run_group "calibrate" "calibrate (host-speed probe)" calibrate_tests
    ~quota_s:0.5 ~lim:500;
  run_group "paper" "paper artifacts (ci scope)" experiment_tests ~quota_s:1.0
    ~lim:2;
  run_group "server" "client-server campaigns (scaled)" server_tests
    ~quota_s:1.0 ~lim:2;
  Option.iter
    (fun path -> write_json path !all_rows ~telemetry_overhead)
    opts.json;
  if enabled "paper" then
    print_endline
      "note: `gcperf run <id>` regenerates each table/figure at full scale.";
  match telemetry_overhead with
  | Some pct when pct >= telemetry_budget_pct ->
      Printf.eprintf "telemetry overhead %.1f%% exceeds the %.0f%% budget\n"
        pct telemetry_budget_pct;
      exit 1
  | Some _ | None -> ()
