module Gc_config = Gcperf_gc.Gc_config
module Ring = Gcperf_cluster.Ring
module Node = Gcperf_cluster.Node
module Coordinator = Gcperf_cluster.Coordinator
module Client = Gcperf_ycsb.Client
module Resilient = Gcperf_ycsb.Resilient
module Session = Gcperf_ycsb.Session
module Gateway = Gcperf_kvstore.Gateway
module Profile = Gcperf_fault.Profile
module Table = Gcperf_report.Table
module A = Artifact

type cell = {
  gc : string;
  ring_size : int;
  fanout : int;
  hedged : bool;
  node_pause_pct : float;
  summary : Coordinator.summary;
}

type result = {
  scope : Scope.t;
  replication : int;
  cells : cell list;
  node_ooms : int;
}

(* The three collectors the paper's server chapters rank: the
   recommended concurrent pair plus the stop-the-world baseline whose
   full collections the fan-out amplifies hardest. *)
let collectors = [ Gc_config.Cms; Gc_config.G1; Gc_config.ParallelOld ]

let ring_sizes scope = Scope.grid scope [ 4; 16; 64 ]
let fanouts scope = Scope.grid scope [ 1; 8; 32 ]
let replication = 3

(* Ring nodes are small shards of the paper's 64 GB server — a 2 GB
   heap with the recommended quarter young, a fixed per-node slice of
   commit log (the dataset scales with the ring).  Tuned so every
   collector's stop-the-world duty cycle lands near 0.15 %: far below
   the 99th percentile at fan-out 1, but 1-(1-p)^32 ≈ 5 % — squarely
   above it — at fan-out 32.  ParallelOld's rare ~1 s full pauses
   against CMS/G1's tens-of-milliseconds ones is what the grid ranks. *)
let node_heap = Exp_common.gb 2
let node_young = Exp_common.mb 512
let node_preload = Exp_common.mb 768
let node_ops_per_s = 180.0
let node_read_frac = 0.9

let cluster_duration_hours = 0.5
let cluster_ops_per_s = 75.0
let keyspace = 4_000_000

(* Hedge a few multiples past the healthy p99 (~1.4 ms): late enough
   that only pause-blocked reads trigger it, early enough that the
   hedge delay itself stays well under the pause tail it rescues. *)
let hedge_ms = 5.0

let duration_s scope = Scope.hours scope cluster_duration_hours *. 3600.0

(* Hedged cells change exactly one knob: reads still unanswered after
   [hedge_ms] race the next replica.  No timeouts, no retries, no
   admission control — the recovery measured is hedging's alone. *)
let resilience_of ~hedged =
  if hedged then
    Session.Resilience.Custom
      ( { Resilient.none with Resilient.hedge_ms }, Gateway.unbounded )
  else Session.Resilience.Off

let kind_index kind =
  let rec find i = function
    | [] -> invalid_arg "Exp_cluster: unknown collector"
    | k :: _ when k = kind -> i
    | _ :: tl -> find (i + 1) tl
  in
  find 0 collectors

(* Node timelines depend only on (collector, node id, scope) — never on
   ring size, fan-out or hedging — so phase 0 generates each exactly
   once and every grid cell reads them. *)
let node_seed kind ~node_id = Exp_common.seed + 500 + (1009 * kind_index kind) + node_id

let generate_timeline ~scope kind ~node_id =
  let gc = Exp_common.config kind ~heap:node_heap ~young:node_young () in
  Node.generate (Exp_common.machine ()) ~gc
    ~duration_s:(duration_s scope)
    ~ops_per_s:(Scope.rate scope node_ops_per_s)
    ~read_frac:node_read_frac
    ~preload_bytes:(Scope.bytes scope node_preload)
    ~seed:(node_seed kind ~node_id)

type spec = {
  s_kind : Gc_config.kind;
  s_ring : int;
  s_fanout : int;
  s_hedged : bool;
}

let cell_seed { s_kind; s_ring; s_fanout; s_hedged } =
  Exp_common.seed + 90_000
  + (4096 * kind_index s_kind)
  + (32 * s_ring) + (2 * s_fanout)
  + if s_hedged then 1 else 0

let run_cell ~scope timelines spec =
  let resilience = resilience_of ~hedged:spec.s_hedged in
  let gateway = Session.Resilience.gateway resilience in
  let seed = cell_seed spec in
  let ring =
    Ring.create ~nodes:spec.s_ring ~replication ()
  in
  let tls : Node.timeline array = List.assoc spec.s_kind timelines in
  let nodes =
    Array.init spec.s_ring (fun id ->
        Node.create ~id tls.(id) ~profile:Profile.none ~gateway
          ~seed:(seed + 7 + id))
  in
  let workload =
    {
      Client.paper_workload with
      Client.read_frac = 0.95;
      ops_per_s = Scope.rate scope cluster_ops_per_s;
      duration_s = duration_s scope;
    }
  in
  let config =
    {
      Coordinator.default with
      Coordinator.workload;
      resilience;
      fanout = spec.s_fanout;
      keyspace = Scope.bytes scope keyspace;
      replication;
      hedge = spec.s_hedged;
    }
  in
  let summary = Coordinator.run config ~ring ~nodes ~seed in
  let pause_pct =
    Array.fold_left
      (fun a n -> a +. (Node.timeline n).Node.pause_fraction)
      0.0 nodes
    /. float_of_int spec.s_ring *. 100.0
  in
  {
    gc = Gc_config.kind_to_string spec.s_kind;
    ring_size = spec.s_ring;
    fanout = spec.s_fanout;
    hedged = spec.s_hedged;
    node_pause_pct = pause_pct;
    summary;
  }

let run_grid ~scope ?(jobs = Exp_common.default_jobs ()) ~ring_sizes ~fanouts
    () =
  let max_ring = List.fold_left max 1 ring_sizes in
  (* Phase 0: one pool cell per (collector, node id). *)
  let gen_specs =
    List.concat_map
      (fun kind -> List.init max_ring (fun node_id -> (kind, node_id)))
      collectors
  in
  let generated =
    Exp_common.Pool.map_list ~jobs
      (fun (kind, node_id) -> generate_timeline ~scope kind ~node_id)
      gen_specs
  in
  let timelines =
    List.mapi
      (fun i kind ->
        ( kind,
          Array.init max_ring (fun node_id ->
              List.nth generated ((i * max_ring) + node_id)) ))
      collectors
  in
  let node_ooms =
    List.fold_left
      (fun a (tl : Node.timeline) -> if tl.Node.oom then a + 1 else a)
      0 generated
  in
  (* Phase 1: one pool cell per grid point, timelines shared read-only. *)
  let specs =
    List.concat_map
      (fun s_kind ->
        List.concat_map
          (fun s_ring ->
            List.concat_map
              (fun s_fanout ->
                List.map
                  (fun s_hedged -> { s_kind; s_ring; s_fanout; s_hedged })
                  [ false; true ])
              fanouts)
          ring_sizes)
      collectors
  in
  let cells =
    Exp_common.Pool.map_list ~jobs (run_cell ~scope timelines) specs
  in
  { scope; replication; cells; node_ooms }

let run_scope ~scope ?(jobs = Exp_common.default_jobs ()) () =
  run_grid ~scope ~jobs ~ring_sizes:(ring_sizes scope)
    ~fanouts:(fanouts scope) ()

let to_artifact (make : A.make) r =
  let module C = Coordinator in
  make
    ~params:
      [
        ("replication", string_of_int r.replication);
        ("node_ooms", string_of_int r.node_ooms);
      ]
    ~columns:
      [
        "gc";
        "ring";
        "fanout";
        "hedge";
        "node_pause_pct";
        "requests";
        "ok";
        "failed";
        "sends";
        "hedges";
        "hedge_wins";
        "hints";
        "pause_intersection_pct";
        "max_inflight";
        "goodput_ops_s";
        "p50_ms";
        "p99_ms";
        "p999_ms";
        "max_ms";
      ]
    ~rows:
      (List.map
         (fun c ->
           let m = c.summary in
           A.
             [
               Text c.gc;
               Int c.ring_size;
               Int c.fanout;
               Bool c.hedged;
               Float c.node_pause_pct;
               Int m.C.requests;
               Int m.C.ok;
               Int m.C.failed;
               Int m.C.sends;
               Int m.C.hedges;
               Int m.C.hedge_wins;
               Int m.C.hints;
               Float m.C.pause_intersection_pct;
               Int m.C.max_inflight;
               Float m.C.goodput_ops_s;
               Float m.C.p50_ms;
               Float m.C.p99_ms;
               Float m.C.p999_ms;
               Float m.C.max_ms;
             ])
         r.cells)

let render a =
  let t =
    Table.create
      ~columns:
        [
          ("GC", Table.Left);
          ("ring", Table.Right);
          ("fanout", Table.Right);
          ("hedge", Table.Left);
          ("duty%", Table.Right);
          ("hit%", Table.Right);
          ("goodput(op/s)", Table.Right);
          ("p50(ms)", Table.Right);
          ("p99(ms)", Table.Right);
          ("p99.9(ms)", Table.Right);
          ("hints", Table.Right);
          ("hedge-win", Table.Right);
        ]
  in
  (* A rule between collectors. *)
  let last = ref None in
  List.iter
    (fun row ->
      let gc = A.text a "gc" row in
      (match !last with
      | Some g when g <> gc -> Table.add_separator t
      | _ -> ());
      last := Some gc;
      let i column = string_of_int (A.int a column row) in
      let f column = Table.cell_f (A.float a column row) in
      Table.add_row t
        [
          gc;
          i "ring";
          i "fanout";
          (if A.bool a "hedge" row then "on" else "off");
          f "node_pause_pct";
          f "pause_intersection_pct";
          f "goodput_ops_s";
          f "p50_ms";
          f "p99_ms";
          f "p999_ms";
          i "hints";
          i "hedge_wins";
        ])
    a.A.rows;
  let requests =
    match a.A.rows with [] -> 0 | row :: _ -> A.int a "requests" row
  in
  let node_ooms = int_of_string (A.param a "node_ooms") in
  Printf.sprintf
    "Cluster ring: tail at scale.  Multi-get requests scatter across a\n\
     replicated ring (replication %s, read-one/write-two, hinted handoff);\n\
     hit%% is the share of requests whose critical path crossed some\n\
     replica's stop-the-world pause (%d requests per cell%s)\n\n\
     %s"
    (A.param a "replication") requests
    (if node_ooms > 0 then Printf.sprintf ", %d node OOMs" node_ooms else "")
    (Table.render t)
