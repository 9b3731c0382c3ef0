module Suite = Gcperf_dacapo.Suite
module Mutator = Gcperf_workload.Mutator
module Vm = Gcperf_runtime.Vm
module Gc_event = Gcperf_sim.Gc_event
module Gc_config = Gcperf_gc.Gc_config
module Policy = Gcperf_policy.Policy
module A = Artifact

type run_stats = {
  minor_pauses : int;
  avg_minor_ms : float;
  p99_minor_ms : float;
  trailing_p99_ms : float;
  max_pause_ms : float;
  total_s : float;
  oom : bool;
  final_young_bytes : int;
  final_survivor_ratio : int;
  final_tenuring : int;
  resizes : int;
  trajectory : Policy.trajectory_point list;
}

let is_minor = function
  | Gc_event.Young | Gc_event.Mixed -> true
  | Gc_event.Full | Gc_event.Initial_mark | Gc_event.Remark
  | Gc_event.Cleanup ->
      false

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1))

let measure machine bench ~gc ~iterations ~seed =
  let vm = Vm.create machine gc ~seed in
  let mut = Mutator.create vm bench.Suite.profile ~seed in
  let oom = ref false in
  (try
     for _ = 1 to iterations do
       ignore (Mutator.run_iteration mut)
     done
   with Gcperf_gc.Gc_ctx.Out_of_memory _ -> oom := true);
  let events = Gc_event.events (Vm.events vm) in
  let minors =
    List.filter_map
      (fun (e : Gc_event.event) ->
        if is_minor e.Gc_event.kind then Some (e.Gc_event.duration_us /. 1e3)
        else None)
      events
  in
  let minor_arr = Array.of_list minors in
  let n = Array.length minor_arr in
  let sorted = Array.copy minor_arr in
  Array.sort compare sorted;
  let trailing = Array.sub minor_arr (n / 2) (n - (n / 2)) in
  Array.sort compare trailing;
  let avg =
    if n = 0 then 0.0
    else Array.fold_left ( +. ) 0.0 minor_arr /. float_of_int n
  in
  let final_young, final_ratio, final_tenuring, resizes, trajectory =
    match Vm.policy vm with
    | Some p ->
        let s = p.Policy.stats () in
        ( s.Policy.cur_young_bytes,
          s.Policy.cur_survivor_ratio,
          s.Policy.cur_tenuring_threshold,
          s.Policy.grows + s.Policy.shrinks,
          p.Policy.trajectory () )
    | None ->
        ( gc.Gc_config.young_bytes,
          gc.Gc_config.survivor_ratio,
          gc.Gc_config.tenuring_threshold,
          0,
          [] )
  in
  {
    minor_pauses = n;
    avg_minor_ms = avg;
    p99_minor_ms = percentile sorted 0.99;
    trailing_p99_ms = percentile trailing 0.99;
    max_pause_ms = 1e3 *. Gc_event.max_pause_s (Vm.events vm);
    total_s = Vm.now_s vm;
    oom = !oom;
    final_young_bytes = final_young;
    final_survivor_ratio = final_ratio;
    final_tenuring;
    resizes;
    trajectory;
  }

let kind_index kind =
  let rec find i = function
    | [] -> 0
    | k :: tl -> if k = kind then i else find (i + 1) tl
  in
  find 0 Exp_common.all_kinds

let run_scope (make : A.make) ~scope ?(jobs = Exp_common.default_jobs ()) () =
  let machine = Exp_common.machine () in
  let bench_name = "xalan" and pause_goal_ms = 200.0 in
  let iterations = Scope.scaled scope 10 in
  let grid = Scope.grid scope (Exp_common.size_grid ()) in
  let bench = Option.get (Suite.find bench_name) in
  let cells_in =
    List.concat_map
      (fun (heap, young) ->
        List.concat_map
          (fun kind -> [ (heap, young, kind, false); (heap, young, kind, true) ])
          Exp_common.all_kinds)
      grid
    |> Array.of_list
  in
  (* Each cell: its summary row, then one trajectory row per policy
     decision (the cells the rows do not use are 0). *)
  let rows =
    Exp_common.Pool.map_cells ~jobs
      (fun (heap, young, kind, adaptive) ->
        let gc =
          { (Exp_common.config kind ~heap ~young ()) with
            Gc_config.adaptive;
            pause_goal_ms;
          }
        in
        (* Same per-collector seed split as the Figure 3 sweep; fixed and
           adaptive share the seed so the policy is the only difference. *)
        let seed = Exp_common.seed + (37 * kind_index kind) in
        let s = measure machine bench ~gc ~iterations ~seed in
        let gc = Exp_common.kind_name kind in
        let mode = if adaptive then "adaptive" else "fixed" in
        A.
          [
            Text "summary";
            Text gc;
            Int heap;
            Text mode;
            Int s.minor_pauses;
            Int s.final_young_bytes;
            Float s.max_pause_ms;
            Float s.avg_minor_ms;
            Float s.p99_minor_ms;
            Float s.trailing_p99_ms;
            Float s.total_s;
            Int s.resizes;
            Bool (s.trailing_p99_ms <= pause_goal_ms);
            Bool s.oom;
          ]
        :: List.map
             (fun (p : Policy.trajectory_point) ->
               A.
                 [
                   Text "trajectory";
                   Text gc;
                   Int heap;
                   Text mode;
                   Int p.Policy.at_collection;
                   Int p.young_bytes_now;
                   Float p.observed_pause_ms;
                   Float p.avg_pause_ms;
                   Float 0.0;
                   Float 0.0;
                   Float 0.0;
                   Int 0;
                   Bool false;
                   Bool false;
                 ])
             s.trajectory)
      cells_in
  in
  make
    ~params:
      [
        ("bench", bench_name);
        ("pause_goal_ms", Printf.sprintf "%g" pause_goal_ms);
        ("iterations", string_of_int iterations);
      ]
    ~columns:
      [
        "row_kind";
        "gc";
        "heap_bytes";
        "mode";
        "collection";
        "young_bytes";
        "pause_ms";
        "avg_pause_ms";
        "p99_ms";
        "tail_p99_ms";
        "total_s";
        "resizes";
        "within_goal";
        "oom";
      ]
    ~rows:(List.concat (Array.to_list rows))

let mbs bytes = float_of_int bytes /. (1024.0 *. 1024.0)

let render a =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf
       "Ergonomics: fixed vs adaptive sizing (%s, pause goal %.0f ms, %s \
        iterations)\n\n"
       (A.param a "bench")
       (float_of_string (A.param a "pause_goal_ms"))
       (A.param a "iterations"));
  Buffer.add_string buf
    (Printf.sprintf "%-14s %8s %9s %6s %7s %8s %8s %8s %7s %5s\n" "collector"
       "heap" "mode" "minors" "avg_ms" "p99_ms" "tail_p99" "young_MB" "resize"
       "goal");
  let adaptive r = A.text a "mode" r = "adaptive" in
  let summaries = A.where a "row_kind" "summary" in
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%-14s %6.0fGB %9s %6d %7.1f %8.1f %8.1f %8.0f %7d %5s\n"
           (A.text a "gc" r)
           (mbs (A.int a "heap_bytes" r) /. 1024.0)
           (A.text a "mode" r) (A.int a "collection" r)
           (A.float a "avg_pause_ms" r)
           (A.float a "p99_ms" r) (A.float a "tail_p99_ms" r)
           (mbs (A.int a "young_bytes" r))
           (A.int a "resizes" r)
           (if A.bool a "oom" r then "OOM"
            else if A.bool a "within_goal" r then "yes"
            else "no")))
    summaries;
  let adaptives = List.filter adaptive summaries in
  let converged = List.filter (A.bool a "within_goal") adaptives in
  Buffer.add_string buf
    (Printf.sprintf
       "\n%d/%d adaptive runs converged within the pause goal; trajectories \
        carry %d points total.\n"
       (List.length converged) (List.length adaptives)
       (List.length
          (List.filter adaptive (A.where a "row_kind" "trajectory"))));
  Buffer.contents buf
