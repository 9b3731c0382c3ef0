(* The benchmark's four workloads, as closed batches of cells.

   A cell is one simulated run.  Each is composed from the layers'
   public entry points, with every call wrapped in a ledger span, so
   that a traced run can attribute host time per layer.  Where a
   library runner would hide the calls (Harness.run,
   Exp_server.run_server_config) or hard-codes Exp_common.seed, its body
   is spelled out here with the seed threaded through; the equivalence
   test (equiv.ml) pins these copies to the library at seed 42. *)

module Vm = Gcperf_runtime.Vm
module Mutator = Gcperf_workload.Mutator
module Harness = Gcperf_dacapo.Harness
module Suite = Gcperf_dacapo.Suite
module Server = Gcperf_kvstore.Server
module Session = Gcperf_ycsb.Session
module Client = Gcperf_ycsb.Client
module Resilient = Gcperf_ycsb.Resilient
module Gateway = Gcperf_kvstore.Gateway
module Node = Gcperf_cluster.Node
module Ring = Gcperf_cluster.Ring
module Coordinator = Gcperf_cluster.Coordinator
module Gc_config = Gcperf_gc.Gc_config
module Gc_event = Gcperf_sim.Gc_event
module Telemetry = Gcperf_telemetry.Telemetry
module Profile = Gcperf_fault.Profile
module Machine = Gcperf_machine.Machine
module Scope = Gcperf.Scope
module Exp_common = Gcperf.Exp_common
module Exp_server = Gcperf.Exp_server
module Exp_faults = Gcperf.Exp_faults
module Exp_pauseless = Gcperf.Exp_pauseless
module Exp_cluster = Gcperf.Exp_cluster

type result =
  | Dacapo of Harness.result
  | Pauseless of Exp_pauseless.cell
  | Faults of Exp_faults.cell
  | Timeline of Node.timeline
  | Cluster of Exp_cluster.cell

type cell = {
  label : string;
  run : Ledger.t -> result * float;
      (** the simulated result and the virtual seconds it simulated *)
}

type workload = {
  name : string;
  jobs : int;  (** pool domains for the cell fan-out *)
  gc_jobs : int;  (** crew domains inside each collection *)
  batches : (result array -> cell array) list;
      (** run in order; each is built from the previous batch's results *)
}

let names = [ "dacapo-sweep"; "server-pauseless"; "server-faults"; "cluster-fanout" ]

let digest = function
  | Dacapo r -> Canon.digest Canon.harness r
  | Pauseless c ->
      Canon.digest
        (fun b (c : Exp_pauseless.cell) ->
          Canon.s b c.gc;
          Canon.i b c.heap_gb;
          Canon.i b c.fold_jobs;
          Canon.server b c.server;
          Canon.session b c.summary)
        c
  | Faults c ->
      Canon.digest
        (fun b (c : Exp_faults.cell) ->
          Canon.s b c.gc;
          Canon.server b c.server;
          List.iter
            (fun (s : Exp_faults.session) ->
              Canon.s b s.gc;
              Canon.s b s.profile;
              Canon.bool b s.resilient;
              Canon.session b s.summary)
            c.sessions)
        c
  | Timeline t -> Canon.digest Canon.timeline t
  | Cluster c ->
      Canon.digest
        (fun b (c : Exp_cluster.cell) ->
          Canon.s b c.gc;
          Canon.i b c.ring_size;
          Canon.i b c.fanout;
          Canon.bool b c.hedged;
          Canon.f b c.node_pause_pct;
          Canon.coordinator b c.summary)
        c

(* Properties every result must have whatever the seed, for seeds with
   no committed digests.  Returns the first one violated. *)
let check result =
  let sorted a = Array.for_all Fun.id (Array.mapi (fun k (s, _) -> k = 0 || fst a.(k - 1) <= s) a) in
  let pauses_ok (r : Exp_server.server_run) =
    sorted r.pauses
    && Array.length r.pauses = Array.length r.intervals
    && Array.for_all (fun (_, d) -> d >= 0.0 && d <= r.max_pause_s) r.pauses
    && r.full_count <= Array.length r.pauses
    && r.duration_s > 0.0
  in
  let session_ok (m : Resilient.summary) =
    m.requests > 0
    && m.ok + m.failed = m.requests
    && m.attempts >= m.requests
    && m.p50_ms <= m.p99_ms && m.p99_ms <= m.p999_ms && m.p999_ms <= m.max_ms
  in
  let fail what = Error what in
  match result with
  | Dacapo r ->
      let its = r.iterations in
      if not (r.oom || Array.length its > 0) then fail "no iterations"
      else if
        not
          (Array.for_all
             (fun (it : Mutator.iteration_stats) ->
               it.duration_s > 0.0 && it.allocated_bytes > 0 && it.pause_s >= 0.0)
             its)
      then fail "iteration with no progress"
      else if
        not
          (sorted
             (Array.of_list
                (List.map (fun (e : Gc_event.event) -> (e.start_us, ())) r.events)))
      then fail "events out of order"
      else if r.total_s < r.final_s then fail "total shorter than final iteration"
      else Ok ()
  | Pauseless c ->
      if not (pauses_ok c.server) then fail "server pause log"
      else if not (session_ok c.summary) then fail "session accounting"
      else Ok ()
  | Faults c ->
      if not (pauses_ok c.server) then fail "server pause log"
      else if List.length c.sessions <> 2 * List.length Profile.all then
        fail "session count"
      else if not (List.for_all (fun (s : Exp_faults.session) -> session_ok s.summary) c.sessions)
      then fail "session accounting"
      else Ok ()
  | Timeline t ->
      if not (sorted t.intervals) then fail "node pauses out of order"
      else if not (t.pause_fraction >= 0.0 && t.pause_fraction < 1.0) then
        fail "node pause fraction"
      else Ok ()
  | Cluster c ->
      let m = c.summary in
      if not (m.requests > 0 && m.ok + m.failed = m.requests) then
        fail "request accounting"
      else if m.reads + m.updates <> m.requests then fail "read/update split"
      else if m.sends < m.subops then fail "fewer sends than sub-operations"
      else if not (m.p50_ms <= m.p99_ms && m.p99_ms <= m.p999_ms) then
        fail "percentiles out of order"
      else Ok ()

(* Traced runs give every VM they own an enabled telemetry registry and
   check its heap invariants once the cell is done. *)
let telemetry ledger =
  if Ledger.traced ledger then Some (Telemetry.create ~enabled:true ()) else None

let verify ledger vm =
  if Ledger.traced ledger then begin
    Ledger.count ledger "runtime.sim_alloc_bytes" (float_of_int (Vm.allocated_bytes vm));
    match Ledger.span ledger ~layer:"vm" "vm.check_invariants" (fun () -> Vm.check_invariants vm) with
    | Ok () -> ()
    | Error _ -> Ledger.count ledger "heap.invariant_failures" 1.0
  end

let mb_label bytes = string_of_int (bytes / (1024 * 1024))

(* --- dacapo-sweep ------------------------------------------------------ *)

(* Harness.run, decomposed: Vm.create, Mutator.create, then the
   iterations with a forced System.gc between them. *)
let harness ledger machine ~seed ~iterations (bench : Suite.bench) ~gc =
  let base : Harness.result =
    {
      bench_name = bench.profile.Gcperf_workload.Profile.name;
      gc_name = Gc_config.kind_to_string gc.Gc_config.kind;
      heap_bytes = gc.heap_bytes;
      young_bytes = gc.young_bytes;
      tlab = gc.tlab;
      system_gc = true;
      crashed = false;
      oom = false;
      iterations = [||];
      total_s = 0.0;
      final_s = 0.0;
      events = [];
    }
  in
  let span ~layer name f = Ledger.span ledger ~layer name f in
  let telemetry = telemetry ledger in
  let vm = span ~layer:"vm" "vm.create" (fun () -> Vm.create ?telemetry machine gc ~seed) in
  let result =
    match
      span ~layer:"mutator" "mutator.create" (fun () ->
          Mutator.create vm bench.profile ~seed:((seed * 7919) + 13))
    with
    | exception Gcperf_gc.Gc_ctx.Out_of_memory _ -> { base with oom = true }
    | mutator -> (
        let stats = ref [] in
        let start_s = Vm.now_s vm in
        match
          for i = 1 to iterations do
            stats :=
              span ~layer:"mutator" "mutator.run_iteration" (fun () ->
                  Mutator.run_iteration mutator)
              :: !stats;
            if i < iterations then
              span ~layer:"vm" "vm.system_gc" (fun () -> Vm.system_gc vm)
          done
        with
        | exception Gcperf_gc.Gc_ctx.Out_of_memory _ ->
            { base with oom = true; iterations = Array.of_list (List.rev !stats) }
        | () ->
            let iterations = Array.of_list (List.rev !stats) in
            {
              base with
              iterations;
              total_s = Vm.now_s vm -. start_s;
              final_s = iterations.(Array.length iterations - 1).duration_s;
              events = Gc_event.events (Vm.events vm);
            })
  in
  verify ledger vm;
  (result, Vm.now_s vm)

let kind_index kinds kind =
  let rec find i = function
    | [] -> invalid_arg "kind_index"
    | k :: _ when k = kind -> i
    | _ :: tl -> find (i + 1) tl
  in
  find 0 kinds

(* The stable DaCapo subset x the six classic collectors x the §3.3
   small-heap grid, with System.gc between iterations: the paper's
   heap-size sweep.  The sweep keeps the paper's full grid and
   iteration count except under the ci scope; cell seeds follow
   Exp_fig3 (one noisy execution per collector). *)
let dacapo_sweep ~scope ~seed =
  let sizes = if scope = Scope.ci then Scope.ci else Scope.full in
  let iterations = Scope.scaled sizes 10 in
  let machine = Machine.paper_server () in
  let kinds = Exp_common.all_kinds in
  let cells =
    List.concat_map
      (fun (bench : Suite.bench) ->
        List.concat_map
          (fun (heap, young) ->
            List.map
              (fun kind ->
                let gc = Exp_common.config kind ~heap ~young () in
                {
                  label =
                    Printf.sprintf "%s/%s/%s-%s" bench.profile.name
                      (Gc_config.kind_to_string kind) (mb_label heap) (mb_label young);
                  run =
                    (fun ledger ->
                      let r, sim_s =
                        harness ledger machine ~iterations bench ~gc
                          ~seed:(seed + (37 * kind_index kinds kind))
                      in
                      (Dacapo r, sim_s));
                })
              kinds)
          (Scope.grid sizes (Exp_common.small_size_grid ())))
      Suite.stable_subset
  in
  { name = "dacapo-sweep"; jobs = 1; gc_jobs = 1; batches = [ (fun _ -> Array.of_list cells) ] }

(* --- the stressed kvstore server --------------------------------------- *)

(* The metric suffix of a server configuration. *)
let gc_key (config : Gc_config.t) =
  match config.kind with
  | Gc_config.G1 -> "g1"
  | Cms -> "cms"
  | ParallelOld -> "parallelold"
  | Concurrent_regions -> "concurrent-regions"
  | Journal_rc -> Printf.sprintf "journal-rc-fj%d" config.journal_fold_jobs
  | k -> String.lowercase_ascii (Gc_config.kind_to_string k)

(* The paper's server deployment: 64 GB heap, 12 GB young generation. *)
let server_gc kind =
  Gc_config.default kind ~heap_bytes:(Exp_common.gb 64) ~young_bytes:(Exp_common.gb 12)

(* Exp_server.run_server_config with [~stress:true ~hours:2.0],
   decomposed: Vm.create, Server.create, replay_commitlog, Server.run,
   then the same summary of the pause log. *)
let server ledger ~scope ~seed ~label (config : Gc_config.t) =
  let span ~layer name f = Ledger.span ledger ~layer name f in
  let key = gc_key config in
  let telemetry = telemetry ledger in
  let vm =
    span ~layer:"vm" "vm.create" (fun () ->
        Vm.create ?telemetry (Exp_common.machine ()) config ~seed)
  in
  let server =
    span ~layer:"server" "server.create" (fun () ->
        Server.create vm
          (Server.stress_config ~heap_bytes:config.heap_bytes)
          ~seed:(seed + 1))
  in
  let replay_ops = ref 0 in
  let oom =
    try
      span ~layer:"server" ("server.replay_commitlog." ^ key) (fun () ->
          Server.replay_commitlog server ~target_bytes:(Scope.bytes scope (Exp_common.gb 22)));
      replay_ops := Server.operations server;
      span ~layer:"server" ("server.run." ^ key) (fun () ->
          Server.run server
            ~duration_s:(Scope.hours scope 2.0 *. 3600.0)
            ~ops_per_s:1500.0 ~read_frac:0.88 ~insert_frac:0.02);
      false
    with Gcperf_gc.Gc_ctx.Out_of_memory _ -> true
  in
  let run : Exp_server.server_run =
    span ~layer:"gc_event" "gc_event.summarise" (fun () ->
        let events = Vm.events vm in
        let all = Gc_event.events events in
        let max_of kinds =
          List.fold_left
            (fun acc (e : Gc_event.event) ->
              if List.mem e.kind kinds then Float.max acc (e.duration_us /. 1e6) else acc)
            0.0 all
        in
        {
          Exp_server.gc = label;
          config_name = "stress";
          duration_s = Vm.now_s vm;
          pauses =
            Array.of_list
              (List.map (fun (e : Gc_event.event) -> (e.start_us /. 1e6, e.duration_us /. 1e6)) all);
          intervals = Gc_event.intervals events;
          db_timeline = Server.db_size_timeline server;
          young_max_s = max_of [ Gc_event.Young; Gc_event.Mixed ];
          full_max_s = max_of [ Gc_event.Full ];
          full_count = Gc_event.count_full events;
          max_pause_s = Gc_event.max_pause_s events;
          oom;
        })
  in
  let ops = Server.operations server in
  Ledger.count ledger "kvstore.operations" (float_of_int ops);
  Ledger.count ledger ("kvstore.serve_ops." ^ key) (float_of_int (ops - !replay_ops));
  Ledger.count ledger "kvstore.flushes" (float_of_int (Server.flushes server));
  Ledger.count ledger ("gc.pauses." ^ key) (float_of_int (Array.length run.pauses));
  Ledger.count ledger ("gc.full." ^ key) (float_of_int run.full_count);
  verify ledger vm;
  run

(* One client session replaying a server run's pauses, with the
   experiments' scaling of the paper's YCSB workload. *)
let session ledger ~scope ~seed ~resilient ~profile (server : Exp_server.server_run) =
  let w = Client.paper_workload in
  let workload =
    { w with Client.duration_s = server.duration_s; ops_per_s = Scope.rate scope w.ops_per_s }
  in
  let resilience =
    if resilient then Session.Resilience.Paper_defaults else Session.Resilience.Off
  in
  let summary =
    Ledger.span ledger ~layer:"session"
      (if resilient then "session.run.on" else "session.run.off")
      (fun () ->
        Session.run ~resilience ~profile ~collector:server.gc workload
          { Session.pauses = server.intervals; db_timeline = server.db_timeline }
          ~seed)
  in
  (summary, workload.duration_s)

(* G1 against the pauseless family, journal fold at one and four
   simulated workers, each followed by Exp_pauseless's pause-spike
   session with resilience off.  The only workload where the heap
   kernels run on large live sets with the crew engaged. *)
let server_pauseless ~scope ~seed =
  let variants =
    [
      (Gc_config.G1, 0, "G1");
      (Gc_config.Concurrent_regions, 0, "ConcurrentRegionsGC");
      (Gc_config.Journal_rc, 1, "JournalRCGC/fj1");
      (Gc_config.Journal_rc, 4, "JournalRCGC/fj4");
    ]
  in
  let cell (kind, fold_jobs, label) =
    let base = server_gc kind in
    let config =
      if fold_jobs > 0 then { base with Gc_config.journal_fold_jobs = fold_jobs } else base
    in
    {
      label;
      run =
        (fun ledger ->
          let server = server ledger ~scope ~seed ~label config in
          let summary, client_s =
            session ledger ~scope ~seed:(seed + 173) ~resilient:false
              ~profile:Profile.pause_spike server
          in
          ( Pauseless { Exp_pauseless.gc = label; heap_gb = 64; fold_jobs; server; summary },
            server.duration_s +. client_s ));
    }
  in
  {
    name = "server-pauseless";
    jobs = 1;
    gc_jobs = 2;
    batches = [ (fun _ -> Array.of_list (List.map cell variants)) ];
  }

(* Exp_faults' grid: each stressed server run feeds one session per
   fault profile, with resilience off and on. *)
let server_faults ~scope ~seed =
  let cell kind =
    let label = Gc_config.kind_to_string kind in
    {
      label;
      run =
        (fun ledger ->
          let server = server ledger ~scope ~seed ~label (server_gc kind) in
          let sim_s = ref server.duration_s in
          let sessions =
            List.concat_map
              (fun (profile : Profile.t) ->
                List.map
                  (fun resilient ->
                    let summary, client_s =
                      session ledger ~scope ~seed:(seed + 131) ~resilient ~profile server
                    in
                    sim_s := !sim_s +. client_s;
                    { Exp_faults.gc = label; profile = profile.name; resilient; summary })
                  [ false; true ])
              Profile.all
          in
          (Faults { Exp_faults.gc = label; server; sessions }, !sim_s));
    }
  in
  {
    name = "server-faults";
    jobs = 1;
    gc_jobs = 1;
    batches = [ (fun _ -> Array.of_list (List.map cell Exp_faults.collectors)) ];
  }

(* --- cluster-fanout ---------------------------------------------------- *)

(* Exp_cluster's constants and seed formulas (not exported there). *)
let cluster_kinds = [ Gc_config.Cms; Gc_config.G1; Gc_config.ParallelOld ]
let replication = 3
let hedge_ms = 5.0

(* Node VM generation for every (collector, node id), then one
   coordinator session per grid point over the shared timelines: the
   coordinator's event loop and the pool's only fan-out, over cells of
   very uneven size. *)
let cluster_fanout ~scope ~seed =
  let ring_sizes = Scope.grid scope [ 4; 16; 64 ] in
  let fanouts = Scope.grid scope [ 1; 8; 32 ] in
  let max_ring = List.fold_left max 1 ring_sizes in
  let duration_s = Scope.hours scope 0.5 *. 3600.0 in
  let machine = Exp_common.machine () in
  let generate =
    List.concat_map
      (fun kind ->
        List.init max_ring (fun node_id ->
            let node_seed = seed + 500 + (1009 * kind_index cluster_kinds kind) + node_id in
            {
              label = Printf.sprintf "node/%s/%d" (Gc_config.kind_to_string kind) node_id;
              run =
                (fun ledger ->
                  let t =
                    Ledger.span ledger ~layer:"node" "node.generate" (fun () ->
                        Node.generate machine
                          ~gc:
                            (Exp_common.config kind ~heap:(Exp_common.gb 2)
                               ~young:(Exp_common.mb 512) ())
                          ~duration_s
                          ~ops_per_s:(Scope.rate scope 180.0)
                          ~read_frac:0.9
                          ~preload_bytes:(Scope.bytes scope (Exp_common.mb 768))
                          ~seed:node_seed)
                  in
                  (Timeline t, t.duration_s));
            }))
      cluster_kinds
  in
  let sessions generated =
    let timeline kind id =
      match generated.((kind_index cluster_kinds kind * max_ring) + id) with
      | Timeline t -> t
      | _ -> invalid_arg "cluster_fanout: node batch"
    in
    List.concat_map
      (fun kind ->
        List.concat_map
          (fun ring_size ->
            List.concat_map
              (fun fanout ->
                List.map
                  (fun hedged ->
                    let cell_seed =
                      seed + 90_000
                      + (4096 * kind_index cluster_kinds kind)
                      + (32 * ring_size) + (2 * fanout)
                      + if hedged then 1 else 0
                    in
                    {
                      label =
                        Printf.sprintf "coordinator/%s/ring%d/fanout%d/%s"
                          (Gc_config.kind_to_string kind) ring_size fanout
                          (if hedged then "hedged" else "plain");
                      run =
                        (fun ledger ->
                          let span ~layer name f = Ledger.span ledger ~layer name f in
                          let resilience =
                            if hedged then
                              Session.Resilience.Custom
                                ({ Resilient.none with hedge_ms }, Gateway.unbounded)
                            else Session.Resilience.Off
                          in
                          let gateway = Session.Resilience.gateway resilience in
                          let ring =
                            span ~layer:"ring" "ring.create" (fun () ->
                                Ring.create ~nodes:ring_size ~replication ())
                          in
                          let nodes =
                            span ~layer:"node" "node.create" (fun () ->
                                Array.init ring_size (fun id ->
                                    Node.create ~id (timeline kind id) ~profile:Profile.none
                                      ~gateway ~seed:(cell_seed + 7 + id)))
                          in
                          let workload =
                            {
                              Client.paper_workload with
                              read_frac = 0.95;
                              ops_per_s = Scope.rate scope 75.0;
                              duration_s;
                            }
                          in
                          let config =
                            {
                              Coordinator.default with
                              workload;
                              resilience;
                              fanout;
                              keyspace = Scope.bytes scope 4_000_000;
                              replication;
                              hedge = hedged;
                            }
                          in
                          let summary =
                            span ~layer:"coordinator"
                              (Printf.sprintf "coordinator.run.fanout%d" fanout)
                              (fun () -> Coordinator.run config ~ring ~nodes ~seed:cell_seed)
                          in
                          let pause_pct =
                            Array.fold_left
                              (fun a n -> a +. (Node.timeline n).pause_fraction)
                              0.0 nodes
                            /. float_of_int ring_size *. 100.0
                          in
                          ( Cluster
                              {
                                Exp_cluster.gc = Gc_config.kind_to_string kind;
                                ring_size;
                                fanout;
                                hedged;
                                node_pause_pct = pause_pct;
                                summary;
                              },
                            duration_s ));
                    })
                  [ false; true ])
              fanouts)
          ring_sizes)
      cluster_kinds
  in
  {
    name = "cluster-fanout";
    jobs = 2;
    gc_jobs = 1;
    batches =
      [ (fun _ -> Array.of_list generate); (fun g -> Array.of_list (sessions g)) ];
  }

let make ~scope ~seed = function
  | "dacapo-sweep" -> Some (dacapo_sweep ~scope ~seed)
  | "server-pauseless" -> Some (server_pauseless ~scope ~seed)
  | "server-faults" -> Some (server_faults ~scope ~seed)
  | "cluster-fanout" -> Some (cluster_fanout ~scope ~seed)
  | _ -> None
