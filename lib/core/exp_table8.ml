module Harness = Gcperf_dacapo.Harness
module Suite = Gcperf_dacapo.Suite
module Gc_event = Gcperf_sim.Gc_event
module Gc_config = Gcperf_gc.Gc_config
module Table = Gcperf_report.Table

type verdict = Good | Fairly_good | Bad

type pause_verdict = Short | Acceptable | Significant | Unacceptable

type entry = {
  gc : string;
  experiment : string;
  throughput : verdict;
  pause : pause_verdict;
  total_rel : float;
  max_pause_s : float;
}

type result = { entries : entry list }

let verdict_to_string = function
  | Good -> "good"
  | Fairly_good -> "fairly good"
  | Bad -> "bad"

let pause_verdict_to_string = function
  | Short -> "short"
  | Acceptable -> "acceptable"
  | Significant -> "significant"
  | Unacceptable -> "unacceptable"

let classify_throughput rel =
  if rel <= 1.05 then Good else if rel < 1.15 then Fairly_good else Bad

(* On the benchmarks, sub-second pauses are short, a few seconds of
   forced full collection is tolerable, and beyond that unacceptable
   (the paper judges G1's forced fulls unacceptable and CMS's
   acceptable); on an interactive server, seconds are "significant" and
   tens of seconds or more unacceptable. *)
let classify_pause ~max_pause_s ~server =
  if server then begin
    if max_pause_s < 1.0 then Acceptable
    else if max_pause_s < 10.0 then Significant
    else Unacceptable
  end
  else if max_pause_s < 0.75 then Short
  else if max_pause_s < 1.5 then Acceptable
  else Unacceptable

let main_kinds = [ Gc_config.ParallelOld; Gc_config.Cms; Gc_config.G1 ]

let run_scope ~scope ?(jobs = Exp_common.default_jobs ()) () =
  let machine = Exp_common.machine () in
  let iterations = Scope.scaled scope 10 in
  (* DaCapo side: stable subset, baseline configuration, system GC on (the
     paper's case (1), where the collectors differ the most).  One cell
     per (collector, benchmark); the per-collector totals fold over the
     results in cell order, so chunk [ki] holds collector [ki]'s runs in
     benchmark order exactly as the sequential nested map produced them. *)
  let benches = Suite.stable_subset in
  let nbenches = List.length benches in
  let dacapo_cells =
    Array.of_list
      (List.concat_map
         (fun kind -> List.map (fun bench -> (kind, bench)) benches)
         main_kinds)
  in
  let dacapo_runs =
    Exp_common.Pool.map_cells ~jobs
      (fun (kind, bench) ->
        let gc = Exp_common.baseline kind in
        Harness.run ~seed:Exp_common.seed ~iterations machine bench ~gc
          ~system_gc:true ())
      dacapo_cells
  in
  let dacapo =
    List.mapi
      (fun ki kind ->
        let runs =
          Array.to_list (Array.sub dacapo_runs (ki * nbenches) nbenches)
        in
        let total =
          List.fold_left (fun acc r -> acc +. r.Harness.total_s) 0.0 runs
        in
        let max_pause =
          List.fold_left
            (fun acc r ->
              List.fold_left
                (fun a e -> Float.max a (e.Gc_event.duration_us /. 1e6))
                acc r.Harness.events)
            0.0 runs
        in
        (Gc_config.kind_to_string kind, total, max_pause))
      main_kinds
  in
  let best_total =
    List.fold_left (fun acc (_, t, _) -> Float.min acc t) infinity dacapo
  in
  let dacapo_entries =
    List.map
      (fun (gc, total, max_pause) ->
        let rel = total /. best_total in
        {
          gc;
          experiment = "DaCapo";
          throughput = classify_throughput rel;
          pause = classify_pause ~max_pause_s:max_pause ~server:false;
          total_rel = rel;
          max_pause_s = max_pause;
        })
      dacapo
  in
  (* Server side: stressed key-value store, one cell per collector. *)
  let server_runs =
    Exp_common.Pool.map_list ~jobs
      (fun kind ->
        Exp_server.run_server_scope ~scope ~kind ~stress:true ~hours:2.0 ())
      main_kinds
  in
  let server_entries =
    List.map
      (fun (r : Exp_server.server_run) ->
        {
          gc = r.Exp_server.gc;
          experiment = "Cassandra";
          (* Relative throughput on the server is dominated by time lost
             to pauses. *)
          total_rel =
            (let paused =
               Array.fold_left (fun a (_, d) -> a +. d) 0.0 r.Exp_server.pauses
             in
             1.0 +. (paused /. Float.max 1.0 r.Exp_server.duration_s));
          throughput =
            (let paused =
               Array.fold_left (fun a (_, d) -> a +. d) 0.0 r.Exp_server.pauses
             in
             classify_throughput
               (1.0 +. (paused /. Float.max 1.0 r.Exp_server.duration_s)));
          pause =
            classify_pause ~max_pause_s:r.Exp_server.max_pause_s ~server:true;
          max_pause_s = r.Exp_server.max_pause_s;
        })
      server_runs
  in
  { entries = dacapo_entries @ server_entries }

let render result =
  let t =
    Table.create
      ~columns:
        [
          ("GC", Table.Left);
          ("Experiment", Table.Left);
          ("Throughput", Table.Left);
          ("Pause Time", Table.Left);
          ("(rel. total)", Table.Right);
          ("(max pause s)", Table.Right);
        ]
  in
  let order = [ "ParallelOldGC"; "ConcMarkSweepGC"; "G1GC" ] in
  List.iter
    (fun gc ->
      List.iter
        (fun exp_name ->
          match
            List.find_opt
              (fun e -> e.gc = gc && e.experiment = exp_name)
              result.entries
          with
          | None -> ()
          | Some e ->
              Table.add_row t
                [
                  e.gc;
                  e.experiment;
                  verdict_to_string e.throughput;
                  pause_verdict_to_string e.pause;
                  Table.cell_f e.total_rel;
                  Table.cell_f e.max_pause_s;
                ])
        [ "DaCapo"; "Cassandra" ];
      Table.add_separator t)
    order;
  "Table 8: advantages and disadvantages of the three main GCs,\n\
   derived from the measured campaigns\n\n"
  ^ Table.render t
