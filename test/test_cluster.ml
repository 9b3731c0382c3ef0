(* Tests for the cluster layer: consistent-hash placement properties,
   the fan-out coordinator's quorum/hedging/hinted-handoff semantics on
   synthetic node timelines, and the grid's worker-count independence. *)

module Ring = Gcperf_cluster.Ring
module Node = Gcperf_cluster.Node
module Coordinator = Gcperf_cluster.Coordinator
module Client = Gcperf_ycsb.Client
module Resilient = Gcperf_ycsb.Resilient
module Session = Gcperf_ycsb.Session
module Gateway = Gcperf_kvstore.Gateway
module Profile = Gcperf_fault.Profile

let int_array = Alcotest.(array int)

(* --- ring placement ------------------------------------------------- *)

let prop_replicas_distinct_and_stable =
  QCheck.Test.make ~name:"replica sets distinct and stable" ~count:200
    QCheck.(triple (int_range 1 40) (int_range 1 5) small_int)
    (fun (nodes, replication, key) ->
      let ring = Ring.create ~nodes ~replication () in
      let reps = Ring.replicas ring ~key in
      let again = Ring.replicas ring ~key in
      Array.length reps = min replication nodes
      && reps = again
      && reps.(0) = Ring.primary ring ~key
      && Array.for_all (fun n -> n >= 0 && n < nodes) reps
      && List.length (List.sort_uniq compare (Array.to_list reps))
         = Array.length reps)

(* Growing the ring from [n] to [n+1] nodes only splices the new node
   in: a key's new replica set is a subset of the old one plus the new
   node, and at most one old replica falls off the end. *)
let prop_grow_moves_little =
  QCheck.Test.make ~name:"grow splices only the new node" ~count:60
    QCheck.(pair (int_range 3 24) (int_range 1 3))
    (fun (nodes, replication) ->
      let old_ring = Ring.create ~nodes ~replication () in
      let new_ring = Ring.create ~nodes:(nodes + 1) ~replication () in
      List.for_all
        (fun key ->
          let olds = Array.to_list (Ring.replicas old_ring ~key) in
          let news = Array.to_list (Ring.replicas new_ring ~key) in
          List.for_all (fun n -> n = nodes || List.mem n olds) news
          && List.length (List.filter (fun n -> not (List.mem n news)) olds)
             <= 1)
        (List.init 200 (fun i -> (i * 7919) + 13)))

(* With 64 vnodes per node the new node takes close to its fair 1/(n+1)
   share of primaries — the whole point of virtual nodes. *)
let test_rebalance_fraction () =
  let nodes = 10 in
  let keys = 20_000 in
  let old_ring = Ring.create ~nodes ~replication:3 () in
  let new_ring = Ring.create ~nodes:(nodes + 1) ~replication:3 () in
  let moved = ref 0 in
  for key = 0 to keys - 1 do
    if Ring.primary new_ring ~key <> Ring.primary old_ring ~key then
      incr moved
  done;
  let fraction = float_of_int !moved /. float_of_int keys in
  let fair = 1.0 /. float_of_int (nodes + 1) in
  Alcotest.(check bool)
    (Printf.sprintf "moved %.3f, fair %.3f" fraction fair)
    true
    (fraction > 0.4 *. fair && fraction < 2.5 *. fair)

let test_successor_skips_avoided () =
  let ring = Ring.create ~nodes:6 ~replication:3 () in
  let key = 12345 in
  let reps = Array.to_list (Ring.replicas ring ~key) in
  (match Ring.successor ring ~key ~avoid:(fun _ -> false) with
  | Some h ->
      Alcotest.(check bool) "handoff target outside replica set" true
        (not (List.mem h reps))
  | None -> Alcotest.fail "successor exists when nothing is avoided");
  Alcotest.(check bool) "all avoided -> none" true
    (Ring.successor ring ~key ~avoid:(fun _ -> true) = None)

(* --- interval searches ---------------------------------------------- *)

(* Sorted timestamps on a grid of whole seconds, so most of them tie, and
   probes on half-second steps, so a probe often equals a timestamp
   exactly.  Both binary searches must agree with the obvious scan: the
   last index whose timestamp is at or before the probe. *)
let prop_interval_searches =
  QCheck.Test.make ~name:"interval searches equal a linear scan" ~count:500
    QCheck.(
      pair
        (list_of_size Gen.(0 -- 30) (int_range 0 10))
        (list_of_size Gen.(1 -- 10) (int_range (-2) 22)))
    (fun (raw, probes) ->
      let starts =
        List.sort Int.compare raw |> List.map float_of_int |> Array.of_list
      in
      let intervals = Array.map (fun s -> (s, s +. 0.25)) starts in
      let db_timeline = Array.mapi (fun i s -> (s, i + 1)) starts in
      let scan t =
        let last = ref (-1) in
        Array.iteri (fun i s -> if s <= t then last := i) starts;
        !last
      in
      List.for_all
        (fun p ->
          let t = float_of_int p /. 2.0 in
          let i = scan t in
          Node.interval_before intervals t = i
          && Client.db_bytes_at db_timeline t
             = if i < 0 then 0 else snd db_timeline.(i))
        probes)

(* --- coordinator on synthetic timelines ----------------------------- *)

let timeline ?(intervals = [||]) ?(duration = 20.0) () =
  {
    Node.collector = "synthetic";
    node_seed = 0;
    duration_s = duration;
    intervals;
    db_timeline = [||];
    pause_fraction = 0.0;
    oom = false;
  }

(* [paused] maps node id to its pause intervals; everything else serves
   cleanly. *)
let make_nodes ~count ~paused ~seed =
  Array.init count (fun id ->
      Node.create ~id
        (timeline ~intervals:(paused id) ())
        ~profile:Profile.none ~gateway:Gateway.unbounded ~seed:(seed + id))

let workload ~read_frac ~ops =
  {
    Client.paper_workload with
    Client.read_frac;
    ops_per_s = ops;
    duration_s = 15.0;
  }

let config ~fanout ~read_frac =
  {
    Coordinator.default with
    Coordinator.workload = workload ~read_frac ~ops:80.0;
    fanout;
    keyspace = 10_000;
  }

let run_with ~config ~paused ~ring_size ~seed =
  let ring = Ring.create ~nodes:ring_size ~replication:3 () in
  let nodes = make_nodes ~count:ring_size ~paused ~seed in
  Coordinator.run config ~ring ~nodes ~seed

let no_pauses _ = [||]

let test_healthy_ring_all_ok () =
  let s =
    run_with
      ~config:(config ~fanout:4 ~read_frac:0.9)
      ~paused:no_pauses ~ring_size:8 ~seed:11
  in
  Alcotest.(check int) "nothing fails" 0 s.Coordinator.failed;
  Alcotest.(check int) "everything answers" s.Coordinator.requests
    s.Coordinator.ok;
  Alcotest.(check bool) "reads scatter" true
    (s.Coordinator.subops > s.Coordinator.requests);
  Alcotest.(check bool) "pause-free ring never intersects" true
    (s.Coordinator.pause_intersected = 0)

let test_deterministic () =
  let go () =
    run_with
      ~config:(config ~fanout:8 ~read_frac:0.9)
      ~paused:(fun id -> if id = 2 then [| (3.0, 4.0) |] else [||])
      ~ring_size:8 ~seed:42
  in
  Alcotest.(check bool) "same seed, same summary" true (go () = go ());
  let other =
    run_with
      ~config:(config ~fanout:8 ~read_frac:0.9)
      ~paused:(fun id -> if id = 2 then [| (3.0, 4.0) |] else [||])
      ~ring_size:8 ~seed:43
  in
  Alcotest.(check bool) "different seed differs" true (go () <> other)

(* A node paused for the whole session: hinted handoff redirects its
   writes to a healthy successor (storing hints) and the write quorum
   still completes every update. *)
let test_hinted_handoff_masks_paused_replica () =
  let paused id = if id = 0 then [| (0.0, 30.0) |] else [||] in
  let s =
    run_with
      ~config:(config ~fanout:1 ~read_frac:0.0)
      ~paused ~ring_size:6 ~seed:7
  in
  Alcotest.(check bool) "hints stored" true (s.Coordinator.hints > 0);
  Alcotest.(check int) "sloppy quorum completes all writes" 0
    s.Coordinator.failed;
  let off =
    run_with
      ~config:
        { (config ~fanout:1 ~read_frac:0.0) with Coordinator.hinted_handoff = false }
      ~paused ~ring_size:6 ~seed:7
  in
  Alcotest.(check int) "no handoff, no hints" 0 off.Coordinator.hints

(* Reads stuck behind a paused primary: a 20 ms hedge races the next
   replica and wins, pulling the tail back to service scale. *)
let test_hedging_rescues_paused_reads () =
  let paused id = if id = 0 then [| (2.0, 8.0) |] else [||] in
  let hedge_on =
    {
      (config ~fanout:4 ~read_frac:1.0) with
      Coordinator.resilience =
        Session.Resilience.Custom
          ({ Resilient.none with Resilient.hedge_ms = 20.0 }, Gateway.unbounded);
      hedge = true;
    }
  in
  let hedged = run_with ~config:hedge_on ~paused ~ring_size:6 ~seed:19 in
  let plain =
    run_with ~config:(config ~fanout:4 ~read_frac:1.0) ~paused ~ring_size:6
      ~seed:19
  in
  Alcotest.(check bool) "hedges fired" true (hedged.Coordinator.hedges > 0);
  Alcotest.(check bool) "hedges won" true (hedged.Coordinator.hedge_wins > 0);
  Alcotest.(check int) "plain never hedges" 0 plain.Coordinator.hedges;
  Alcotest.(check bool)
    (Printf.sprintf "hedging cuts the tail (%.1f vs %.1f ms)"
       hedged.Coordinator.p999_ms plain.Coordinator.p999_ms)
    true
    (hedged.Coordinator.p999_ms < plain.Coordinator.p999_ms)

(* --- grid determinism across worker counts --------------------------- *)

(* The experiment contract: the rendered artifact is a pure function of
   the seeds, whatever the pool fan-out.  A reduced grid keeps the three
   runs cheap. *)
let test_grid_jobs_identity () =
  let render jobs =
    Gcperf.Exp_cluster.render
      (Gcperf.Exp_cluster.to_artifact
         (Gcperf.Artifact.make ~name:"cluster" ~title:"cluster")
         (Gcperf.Exp_cluster.run_grid ~scope:Gcperf.Scope.ci ~jobs
            ~ring_sizes:[ 4 ] ~fanouts:[ 2 ] ()))
  in
  let j1 = render 1 in
  Alcotest.(check string) "jobs 2 matches jobs 1" j1 (render 2);
  Alcotest.(check string) "jobs 4 matches jobs 1" j1 (render 4)

let () =
  ignore int_array;
  Alcotest.run "cluster"
    [
      ( "ring",
        [
          QCheck_alcotest.to_alcotest prop_replicas_distinct_and_stable;
          QCheck_alcotest.to_alcotest prop_grow_moves_little;
          Alcotest.test_case "rebalance fraction" `Quick
            test_rebalance_fraction;
          Alcotest.test_case "successor skips avoided" `Quick
            test_successor_skips_avoided;
        ] );
      ("node", [ QCheck_alcotest.to_alcotest prop_interval_searches ]);
      ( "coordinator",
        [
          Alcotest.test_case "healthy ring all ok" `Quick
            test_healthy_ring_all_ok;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "hinted handoff" `Quick
            test_hinted_handoff_masks_paused_replica;
          Alcotest.test_case "hedged reads" `Quick
            test_hedging_rescues_paused_reads;
        ] );
      ( "grid",
        [
          Alcotest.test_case "jobs identity" `Slow test_grid_jobs_identity;
        ] );
    ]
