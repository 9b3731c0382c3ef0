module Harness = Gcperf_dacapo.Harness
module Suite = Gcperf_dacapo.Suite
module Gc_event = Gcperf_sim.Gc_event
module Chart = Gcperf_report.Chart
module Mutator = Gcperf_workload.Mutator
module A = Artifact

(* One glyph per collector, in Gc_config.all_kinds order:
   Serial, ParNew, Parallel, ParallelOld, CMS, G1. *)
let glyphs = "SNLPCG"

let mode_name system_gc = if system_gc then "system-gc" else "no-system-gc"

(* Figure 1's rows for one run: its series row, then one row per pause.
   Figure 2's: its series row, then one row per iteration. *)
let rows_of_run ~mode (r : Harness.result) =
  let gc = r.Harness.gc_name in
  let pauses =
    List.map
      (fun e -> (e.Gc_event.start_us /. 1e6, e.Gc_event.duration_us /. 1e6))
      r.Harness.events
  in
  let max_pause = List.fold_left (fun a (_, d) -> Float.max a d) 0.0 pauses in
  let fig1 =
    A.
      [
        Text "series";
        Text mode;
        Text gc;
        Int (List.length pauses);
        Float max_pause;
        Float r.Harness.total_s;
        Float 0.0;
        Float 0.0;
      ]
    :: List.map
         (fun (t, d) ->
           A.
             [
               Text "pause";
               Text mode;
               Text gc;
               Int 0;
               Float 0.0;
               Float 0.0;
               Float t;
               Float d;
             ])
         pauses
  in
  let fig2 =
    A.
      [
        Text "series";
        Text mode;
        Text gc;
        Float r.Harness.total_s;
        Int 0;
        Float 0.0;
      ]
    :: List.mapi
         (fun i (s : Mutator.iteration_stats) ->
           A.
             [
               Text "iteration";
               Text mode;
               Text gc;
               Float 0.0;
               Int (i + 1);
               Float s.Mutator.duration_s;
             ])
         (Array.to_list r.Harness.iterations)
  in
  (fig1, fig2)

let run_scope ~(fig1 : A.make) ~(fig2 : A.make) ~scope
    ?(jobs = Exp_common.default_jobs ()) () =
  let machine = Exp_common.machine () in
  let b = Option.get (Suite.find "xalan") in
  let iterations = Scope.scaled scope 10 in
  (* Both system-GC modes and all six collectors fan out together: 12
     independent cells, in mode-major, collector order. *)
  let cells =
    Array.of_list
      (List.concat_map
         (fun system_gc ->
           List.map (fun kind -> (system_gc, kind)) Exp_common.all_kinds)
         [ true; false ])
  in
  let runs =
    Array.to_list
      (Exp_common.Pool.map_cells ~jobs
         (fun (system_gc, kind) ->
           let gc = Exp_common.baseline kind in
           rows_of_run ~mode:(mode_name system_gc)
             (Harness.run ~seed:Exp_common.seed ~iterations machine b ~gc
                ~system_gc ()))
         cells)
  in
  [
    fig1 ~params:[]
      ~columns:
        [
          "row_kind";
          "mode";
          "gc";
          "pauses";
          "max_pause_s";
          "total_s";
          "time_s";
          "pause_s";
        ]
      ~rows:(List.concat_map fst runs);
    fig2 ~params:[]
      ~columns:
        [ "row_kind"; "mode"; "gc"; "total_s"; "iteration"; "duration_s" ]
      ~rows:(List.concat_map snd runs);
  ]

(* One chart series per "series" row of [mode], in row order, with the
   points [point] reads from the mode's other rows of that collector. *)
let chart_series a ~mode ~point =
  let of_mode = A.where a "mode" mode in
  let is_series row = A.text a "row_kind" row = "series" in
  List.filter is_series of_mode
  |> List.mapi (fun i row ->
         let gc = A.text a "gc" row in
         {
           Chart.label = gc;
           glyph = glyphs.[i mod String.length glyphs];
           points =
             Array.of_list
               (List.filter_map
                  (fun row ->
                    if is_series row || A.text a "gc" row <> gc then None
                    else point row)
                  of_mode);
         })

let render_figure1 a =
  let part title mode =
    Printf.sprintf "%s\n%s" title
      (Chart.scatter ~x_label:"Execution Time (s)"
         ~y_label:"GC Pause Duration (s)"
         (chart_series a ~mode ~point:(fun row ->
              Some (A.float a "time_s" row, A.float a "pause_s" row))))
  in
  "Figure 1: GC pause time for the Xalan benchmark with and without a\n\
   system GC between iterations\n\n"
  ^ part "(a) System GC" "system-gc"
  ^ "\n"
  ^ part "(b) No System GC" "no-system-gc"

let render_figure2 a =
  (* Iterations 4..N, as in the paper's charts. *)
  let point row =
    let i = A.int a "iteration" row in
    if i >= 4 then Some (float_of_int i, A.float a "duration_s" row) else None
  in
  let part title mode =
    Printf.sprintf "%s\n%s" title
      (Chart.line ~x_label:"Iteration" ~y_label:"Duration (s)"
         (chart_series a ~mode ~point))
  in
  let totals mode =
    String.concat "\n"
      (List.filter_map
         (fun row ->
           if A.text a "mode" row <> mode then None
           else
             Some
               (Printf.sprintf "    %-16s total %.2fs" (A.text a "gc" row)
                  (A.float a "total_s" row)))
         (A.where a "row_kind" "series"))
  in
  "Figure 2: execution time for the Xalan benchmark per iteration\n\n"
  ^ part "(a) System GC" "system-gc"
  ^ totals "system-gc"
  ^ "\n\n"
  ^ part "(b) No System GC" "no-system-gc"
  ^ totals "no-system-gc"
  ^ "\n"
