module Harness = Gcperf_dacapo.Harness
module Suite = Gcperf_dacapo.Suite
module Gc_event = Gcperf_sim.Gc_event
module Chart = Gcperf_report.Chart
module Mutator = Gcperf_workload.Mutator

type gc_series = {
  gc : string;
  pause_points : (float * float) array;
  iteration_durations : float array;
  total_s : float;
}

type result = {
  with_system_gc : gc_series list;
  without_system_gc : gc_series list;
}

(* One glyph per collector, in Gc_config.all_kinds order:
   Serial, ParNew, Parallel, ParallelOld, CMS, G1. *)
let glyphs = "SNLPCG"

let series_of_run (r : Harness.result) =
  {
    gc = r.Harness.gc_name;
    pause_points =
      Array.of_list
        (List.map
           (fun e ->
             (e.Gc_event.start_us /. 1e6, e.Gc_event.duration_us /. 1e6))
           r.Harness.events);
    iteration_durations =
      Array.map (fun s -> s.Mutator.duration_s) r.Harness.iterations;
    total_s = r.Harness.total_s;
  }

let run_scope ~scope ?(jobs = Exp_common.default_jobs ()) ?(bench = "xalan")
    () =
  let machine = Exp_common.machine () in
  let b =
    match Suite.find bench with
    | Some b -> b
    | None -> invalid_arg ("Exp_xalan: unknown benchmark " ^ bench)
  in
  let iterations = Scope.scaled scope 10 in
  (* Both system-GC modes and all six collectors fan out together: 12
     independent cells, results split back by mode in collector order. *)
  let kinds = Exp_common.all_kinds in
  let cells =
    Array.of_list
      (List.concat_map
         (fun system_gc -> List.map (fun kind -> (system_gc, kind)) kinds)
         [ true; false ])
  in
  let series =
    Exp_common.Pool.map_cells ~jobs
      (fun (system_gc, kind) ->
        let gc = Exp_common.baseline kind in
        series_of_run
          (Harness.run ~seed:Exp_common.seed ~iterations machine b ~gc
             ~system_gc ()))
      cells
  in
  let nkinds = List.length kinds in
  let slice off = Array.to_list (Array.sub series off nkinds) in
  { with_system_gc = slice 0; without_system_gc = slice nkinds }

let chart_series l =
  List.mapi
    (fun i s ->
      { Chart.label = s.gc; glyph = glyphs.[i mod String.length glyphs];
        points = s.pause_points })
    l

let render_figure1 result =
  let part title l =
    Printf.sprintf "%s\n%s" title
      (Chart.scatter ~x_label:"Execution Time (s)"
         ~y_label:"GC Pause Duration (s)" (chart_series l))
  in
  "Figure 1: GC pause time for the Xalan benchmark with and without a\n\
   system GC between iterations\n\n"
  ^ part "(a) System GC" result.with_system_gc
  ^ "\n"
  ^ part "(b) No System GC" result.without_system_gc

let render_figure2 result =
  let last_iterations s =
    (* Iterations 4..N, as in the paper's charts. *)
    let pts =
      Array.mapi (fun i d -> (float_of_int (i + 1), d)) s.iteration_durations
    in
    Array.of_list (List.filteri (fun i _ -> i >= 3) (Array.to_list pts))
  in
  let series l =
    List.mapi
      (fun i s ->
        {
          Chart.label = s.gc;
          glyph = glyphs.[i mod String.length glyphs];
          points = last_iterations s;
        })
      l
  in
  let part title l =
    Printf.sprintf "%s\n%s" title
      (Chart.line ~x_label:"Iteration" ~y_label:"Duration (s)" (series l))
  in
  let totals l =
    String.concat "\n"
      (List.map (fun s -> Printf.sprintf "    %-16s total %.2fs" s.gc s.total_s) l)
  in
  "Figure 2: execution time for the Xalan benchmark per iteration\n\n"
  ^ part "(a) System GC" result.with_system_gc
  ^ totals result.with_system_gc
  ^ "\n\n"
  ^ part "(b) No System GC" result.without_system_gc
  ^ totals result.without_system_gc
  ^ "\n"
