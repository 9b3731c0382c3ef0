module Client = Gcperf_ycsb.Client
module Session = Gcperf_ycsb.Session
module Stats = Gcperf_stats.Stats
module Gc_config = Gcperf_gc.Gc_config
module Chart = Gcperf_report.Chart
module Table = Gcperf_report.Table
module A = Artifact

let one ~scope kind =
  let server =
    Exp_server.run_server_scope ~scope ~kind ~stress:true ~hours:2.0 ()
  in
  let workload =
    let w = Client.paper_workload in
    {
      w with
      Client.duration_s = server.Exp_server.duration_s;
      ops_per_s = Scope.rate scope w.Client.ops_per_s;
    }
  in
  let points =
    Session.points workload
      {
        Session.pauses = server.Exp_server.intervals;
        db_timeline = server.Exp_server.db_timeline;
      }
      ~seed:(Exp_common.seed + 97)
  in
  let gc = server.Exp_server.gc in
  (* The paper plots only the highest 10000 points of each chart. *)
  let plotted =
    Stats.top_k_by
      (fun (p : Client.point) -> p.Client.latency_ms)
      10_000 (Array.to_list points)
  in
  let reads, updates =
    List.partition (fun p -> p.Client.kind = Client.Read) plotted
  in
  let point kind t ms =
    A.[ Text kind; Text gc; Int 0; Float 0.0; Int 0; Float t; Float ms ]
  in
  let client kind l =
    List.map (fun p -> point kind p.Client.time_s p.Client.latency_ms) l
  in
  let fig5 =
    A.
      [
        Text "run";
        Text gc;
        Int (Array.length points);
        Float
          (Array.fold_left
             (fun a (p : Client.point) -> Float.max a p.Client.latency_ms)
             0.0 points);
        Int
          (Array.fold_left
             (fun a (p : Client.point) ->
               if p.Client.gc_correlated then a + 1 else a)
             0 points);
        Float 0.0;
        Float 0.0;
      ]
    :: client "read" reads
    @ client "update" updates
    @ List.map
        (fun (t, d) -> point "pause" t (d *. 1e3))
        (Array.to_list server.Exp_server.pauses)
  in
  let bands op (rep : Stats.latency_report) =
    List.map
      (fun (b : Stats.band) ->
        A.
          [
            Text gc;
            Text op;
            Float rep.Stats.avg_ms;
            Float rep.Stats.min_ms;
            Float rep.Stats.max_ms;
            Text b.Stats.label;
            Float b.Stats.pct_requests;
            Float b.Stats.pct_gc;
            Int (Array.length points);
          ])
      (rep.Stats.around_avg :: rep.Stats.above)
  in
  ( fig5,
    bands "read" (Client.report points ~kind:Client.Read)
    @ bands "update" (Client.report points ~kind:Client.Update) )

let run_scope ~(fig5 : A.make) ~(table567 : A.make) ~scope
    ?(jobs = Exp_common.default_jobs ()) () =
  (* One cell per collector; the server run and its replayed YCSB client
     live entirely inside the cell. *)
  let runs =
    Exp_common.Pool.map_list ~jobs
      (fun kind -> one ~scope kind)
      [ Gc_config.ParallelOld; Gc_config.Cms; Gc_config.G1 ]
  in
  [
    fig5 ~params:[]
      ~columns:
        [
          "row_kind";
          "gc";
          "points";
          "max_latency_ms";
          "gc_correlated_points";
          "time_s";
          "latency_ms";
        ]
      ~rows:(List.concat_map fst runs);
    table567 ~params:[]
      ~columns:
        [
          "gc";
          "op";
          "avg_ms";
          "min_ms";
          "max_ms";
          "band";
          "pct_requests";
          "pct_gc";
          "points";
        ]
      ~rows:(List.concat_map snd runs);
  ]

let render_one a gc =
  let pts kind =
    Array.of_list
      (List.filter_map
         (fun row ->
           if A.text a "gc" row <> gc then None
           else Some (A.float a "time_s" row, A.float a "latency_ms" row))
         (A.where a "row_kind" kind))
  in
  Chart.scatter ~x_label:"Time since beginning of experiment (s)"
    ~y_label:"Latency (ms)"
    [
      { Chart.label = "READ"; glyph = 'r'; points = pts "read" };
      { Chart.label = "UPDATE"; glyph = 'u'; points = pts "update" };
      { Chart.label = "GC (pause, ms)"; glyph = '*'; points = pts "pause" };
    ]

let render_figure5 a =
  let runs = List.map (A.text a "gc") (A.where a "row_kind" "run") in
  "Figure 5: application response time for three GC strategies\n\
   (highest 10000 points of each run)\n\n"
  ^ String.concat ""
      (List.map2
         (fun title gc -> Printf.sprintf "%s\n%s\n" title (render_one a gc))
         [ "(a) ParallelOld"; "(b) CMS"; "(c) G1" ]
         runs)

(* One of Tables 5/6/7, depending on the experiment's collector. *)
let render_table a gc =
  let of_op op =
    List.filter (fun row -> A.text a "op" row = op) (A.where a "gc" gc)
  in
  let read = of_op "read" and update = of_op "update" in
  let t =
    Table.create
      ~columns:
        [ ("", Table.Left); ("READ", Table.Right); ("UPDATE", Table.Right) ]
  in
  (* Each op's rows are its bands in order: 0.5x-1.5x AVG, then the
     >2^k x AVG bands; the op's average and extremes repeat on each. *)
  let row label column k =
    let v rows =
      match List.nth_opt rows k with
      | Some r -> A.float a column r
      | None -> 0.0
    in
    Table.add_row t [ label; Table.cell_pct (v read); Table.cell_pct (v update) ]
  in
  row "AVG(ms)" "avg_ms" 0;
  row "MAX(ms)" "max_ms" 0;
  row "MIN(ms)" "min_ms" 0;
  Table.add_separator t;
  row "0.5x-1.5x AVG (%reqs)" "pct_requests" 0;
  row "0.5x-1.5x AVG (%GCs)" "pct_gc" 0;
  for k = 1 to Int.max (List.length read) (List.length update) - 1 do
    let label =
      match List.nth_opt read k with
      | Some b -> A.text a "band" b
      | None -> Printf.sprintf ">%dx AVG" (1 lsl k)
    in
    Table.add_separator t;
    row (label ^ " (%reqs)") "pct_requests" k;
    row (label ^ " (%GCs)") "pct_gc" k
  done;
  Printf.sprintf
    "Latency statistics for READ and UPDATE operations, %s (%d points)\n\n%s"
    gc
    (A.int a "points" (List.hd read))
    (Table.render t)

let render_tables567 a =
  "Table 5: " ^ render_table a "ParallelOldGC" ^ "\nTable 6: "
  ^ render_table a "G1GC" ^ "\nTable 7: "
  ^ render_table a "ConcMarkSweepGC"
