module Suite = Gcperf_dacapo.Suite
module Gc_config = Gcperf_gc.Gc_config

type candidate = {
  heap_bytes : int;
  young_bytes : int;
  stats : Exp_ergonomics.run_stats;
  meets_goal : bool;
}

type recommendation = {
  collector : Gc_config.kind;
  bench : string;
  pause_goal_ms : float;
  iterations : int;
  candidates : candidate list;
  best : candidate option;
  refined : Exp_ergonomics.run_stats option;
}

(* The search grid: heaps around the study's baseline, young generation
   as the fractions HotSpot ergonomics itself explores (1/4 .. 1/2 of
   the heap).  Scope cuts the grid the same way the experiments do. *)
let search_grid scope =
  let gb = Gc_config.gb in
  Scope.grid scope
    (List.concat_map
       (fun heap ->
         List.map
           (fun (num, den) -> (heap, heap / den * num))
           [ (1, 4); (3, 8); (1, 2) ])
       [ gb 8; gb 16; gb 32 ])

let pick_best candidates =
  let alive = List.filter (fun c -> not c.stats.Exp_ergonomics.oom) candidates in
  let meeting = List.filter (fun c -> c.meets_goal) alive in
  let by_throughput a b =
    match compare a.stats.Exp_ergonomics.total_s b.stats.Exp_ergonomics.total_s with
    | 0 -> compare a.heap_bytes b.heap_bytes
    | c -> c
  in
  let by_tail a b =
    compare a.stats.Exp_ergonomics.trailing_p99_ms
      b.stats.Exp_ergonomics.trailing_p99_ms
  in
  match meeting with
  | _ :: _ -> Some (List.hd (List.sort by_throughput meeting))
  | [] -> ( match List.sort by_tail alive with [] -> None | c :: _ -> Some c)

let run_scope ~scope ?(jobs = Exp_common.default_jobs ())
    ?(pause_goal_ms = 200.0) ~bench kind =
  let machine = Exp_common.machine () in
  let iterations = Scope.scaled scope 10 in
  let seed = Exp_common.seed in
  let grid = Array.of_list (search_grid scope) in
  let candidates =
    Exp_common.Pool.map_cells ~jobs
      (fun (heap, young) ->
        let gc = Exp_common.config kind ~heap ~young () in
        let stats =
          Exp_ergonomics.measure machine bench ~gc ~iterations ~seed
        in
        {
          heap_bytes = heap;
          young_bytes = young;
          stats;
          meets_goal =
            (not stats.Exp_ergonomics.oom)
            && stats.Exp_ergonomics.trailing_p99_ms <= pause_goal_ms;
        })
      grid
    |> Array.to_list
  in
  let best = pick_best candidates in
  let refined =
    Option.map
      (fun b ->
        let gc =
          {
            (Exp_common.config kind ~heap:b.heap_bytes ~young:b.young_bytes ())
            with
            Gc_config.adaptive = true;
            pause_goal_ms;
          }
        in
        Exp_ergonomics.measure machine bench ~gc ~iterations ~seed)
      best
  in
  {
    collector = kind;
    bench = bench.Suite.profile.Gcperf_workload.Profile.name;
    pause_goal_ms;
    iterations;
    candidates;
    best;
    refined;
  }

let collector_flag = function
  | Gc_config.Serial -> "-XX:+UseSerialGC"
  | Gc_config.ParNew -> "-XX:+UseParNewGC"
  | Gc_config.Parallel -> "-XX:+UseParallelGC"
  | Gc_config.ParallelOld -> "-XX:+UseParallelOldGC"
  | Gc_config.Cms -> "-XX:+UseConcMarkSweepGC"
  | Gc_config.G1 -> "-XX:+UseG1GC"
  (* No JDK8 flag exists for the pauseless family; emit the spelling our
     own CLI accepts so the line stays pasteable into gcperf. *)
  | Gc_config.Concurrent_regions -> "-XX:+UseConcurrentRegionsGC"
  | Gc_config.Journal_rc -> "-XX:+UseJournalRCGC"

let size_flag prefix bytes =
  let mb = Gc_config.mb 1 in
  if bytes mod Gc_config.gb 1 = 0 then
    Printf.sprintf "%s%dg" prefix (bytes / Gc_config.gb 1)
  else Printf.sprintf "%s%dm" prefix ((bytes + mb - 1) / mb)

(* The JVM command-line flags the recommendation translates to
   (["-XX:+UseG1GC"; "-Xms8g"; ...]); empty when [best] is [None]. *)
let flags r =
  match r.best with
  | None -> []
  | Some b ->
      (* Prefer the sizes the adaptive re-run settled on: they already
         respect survivor occupancy and the pause goal at this point. *)
      let young, ratio, tenuring =
        match r.refined with
        | Some s when not s.Exp_ergonomics.oom ->
            ( s.Exp_ergonomics.final_young_bytes,
              s.Exp_ergonomics.final_survivor_ratio,
              s.Exp_ergonomics.final_tenuring )
        | _ ->
            let d =
              Gc_config.default r.collector ~heap_bytes:b.heap_bytes
                ~young_bytes:b.young_bytes
            in
            (b.young_bytes, d.Gc_config.survivor_ratio, d.Gc_config.tenuring_threshold)
      in
      [
        collector_flag r.collector;
        size_flag "-Xms" b.heap_bytes;
        size_flag "-Xmx" b.heap_bytes;
        size_flag "-Xmn" young;
        Printf.sprintf "-XX:SurvivorRatio=%d" ratio;
        Printf.sprintf "-XX:MaxTenuringThreshold=%d" tenuring;
        Printf.sprintf "-XX:MaxGCPauseMillis=%.0f" r.pause_goal_ms;
      ]

let mbs bytes = float_of_int bytes /. (1024.0 *. 1024.0)

let render r =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf
       "gcperf tune: %s on %s, pause goal %.0f ms (%d iterations per \
        candidate)\n\n"
       (Gc_config.kind_to_string r.collector)
       r.bench r.pause_goal_ms r.iterations);
  Buffer.add_string buf
    (Printf.sprintf "%8s %8s %7s %8s %8s %9s %5s\n" "heap_MB" "young_MB"
       "minors" "avg_ms" "tail_p99" "total_s" "goal");
  List.iter
    (fun c ->
      Buffer.add_string buf
        (Printf.sprintf "%8.0f %8.0f %7d %8.1f %8.1f %9.2f %5s\n"
           (mbs c.heap_bytes) (mbs c.young_bytes)
           c.stats.Exp_ergonomics.minor_pauses
           c.stats.Exp_ergonomics.avg_minor_ms
           c.stats.Exp_ergonomics.trailing_p99_ms
           c.stats.Exp_ergonomics.total_s
           (if c.stats.Exp_ergonomics.oom then "OOM"
            else if c.meets_goal then "yes"
            else "no")))
    r.candidates;
  (match r.best with
  | None ->
      Buffer.add_string buf
        "\nEvery candidate ran out of memory; raise the heap range.\n"
  | Some b ->
      Buffer.add_string buf
        (Printf.sprintf "\nRecommended: %.0f MB heap, %.0f MB young%s\n"
           (mbs b.heap_bytes) (mbs b.young_bytes)
           (if b.meets_goal then ""
            else
              " (no candidate met the pause goal; this one has the lowest \
               tail pause)"));
      (match r.refined with
      | Some s when not s.Exp_ergonomics.oom ->
          Buffer.add_string buf
            (Printf.sprintf
               "Adaptive refinement settled at %.0f MB young \
                (SurvivorRatio %d, tenuring %d) after %d resizes.\n"
               (mbs s.Exp_ergonomics.final_young_bytes)
               s.Exp_ergonomics.final_survivor_ratio
               s.Exp_ergonomics.final_tenuring s.Exp_ergonomics.resizes)
      | _ -> ());
      Buffer.add_string buf
        (Printf.sprintf "\nFlags:\n  %s\n" (String.concat " " (flags r))));
  Buffer.contents buf
