module Suite = Gcperf_dacapo.Suite
module Mutator = Gcperf_workload.Mutator
module Vm = Gcperf_runtime.Vm
module Gc_event = Gcperf_sim.Gc_event
module Gc_config = Gcperf_gc.Gc_config
module Policy = Gcperf_policy.Policy

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

type cell = {
  gc : string;
  heap_bytes : int;
  young_bytes : int;
  adaptive : bool;
  stats : run_stats;
  within_goal : bool;
}

type result = {
  bench : string;
  pause_goal_ms : float;
  iterations : int;
  cells : cell list;
}

let kind_index kind =
  let rec find i = function
    | [] -> 0
    | k :: tl -> if k = kind then i else find (i + 1) tl
  in
  find 0 Exp_common.all_kinds

let bench_name = "xalan"

let run_scope ~scope ?(jobs = Exp_common.default_jobs ())
    ?(pause_goal_ms = 200.0) () =
  let machine = Exp_common.machine () in
  let iterations = Scope.scaled scope 10 in
  let grid = Scope.grid scope (Exp_common.size_grid ()) in
  let bench =
    match Suite.find bench_name with
    | Some b -> b
    | None -> invalid_arg "Exp_ergonomics: xalan missing from the suite"
  in
  let cells_in =
    List.concat_map
      (fun (heap, young) ->
        List.concat_map
          (fun kind -> [ (heap, young, kind, false); (heap, young, kind, true) ])
          Exp_common.all_kinds)
      grid
    |> Array.of_list
  in
  let runs =
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
        let stats = measure machine bench ~gc ~iterations ~seed in
        {
          gc = Exp_common.kind_name kind;
          heap_bytes = heap;
          young_bytes = young;
          adaptive;
          stats;
          within_goal = stats.trailing_p99_ms <= pause_goal_ms;
        })
      cells_in
  in
  { bench = bench_name; pause_goal_ms; iterations; cells = Array.to_list runs }

let mbs bytes = float_of_int bytes /. (1024.0 *. 1024.0)

let render r =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf
       "Ergonomics: fixed vs adaptive sizing (%s, pause goal %.0f ms, %d \
        iterations)\n\n"
       r.bench r.pause_goal_ms r.iterations);
  Buffer.add_string buf
    (Printf.sprintf "%-14s %8s %9s %6s %7s %8s %8s %8s %7s %5s\n" "collector"
       "heap" "mode" "minors" "avg_ms" "p99_ms" "tail_p99" "young_MB" "resize"
       "goal");
  List.iter
    (fun c ->
      Buffer.add_string buf
        (Printf.sprintf "%-14s %6.0fGB %9s %6d %7.1f %8.1f %8.1f %8.0f %7d %5s\n"
           c.gc
           (mbs c.heap_bytes /. 1024.0)
           (if c.adaptive then "adaptive" else "fixed")
           c.stats.minor_pauses c.stats.avg_minor_ms c.stats.p99_minor_ms
           c.stats.trailing_p99_ms
           (mbs c.stats.final_young_bytes)
           c.stats.resizes
           (if c.stats.oom then "OOM"
            else if c.within_goal then "yes"
            else "no")))
    r.cells;
  let adaptives = List.filter (fun c -> c.adaptive) r.cells in
  let converged = List.filter (fun c -> c.within_goal) adaptives in
  Buffer.add_string buf
    (Printf.sprintf
       "\n%d/%d adaptive runs converged within the pause goal; trajectories \
        carry %d points total.\n"
       (List.length converged) (List.length adaptives)
       (List.fold_left
          (fun acc c -> acc + List.length c.stats.trajectory)
          0 adaptives));
  Buffer.contents buf
