module Client = Gcperf_ycsb.Client
module Session = Gcperf_ycsb.Session
module Stats = Gcperf_stats.Stats
module Gc_config = Gcperf_gc.Gc_config
module Chart = Gcperf_report.Chart
module Table = Gcperf_report.Table

type gc_experiment = {
  gc : string;
  points : Client.point array;
  server : Exp_server.server_run;
  read_report : Stats.latency_report;
  update_report : Stats.latency_report;
}

type result = {
  parallel_old : gc_experiment;
  cms : gc_experiment;
  g1 : gc_experiment;
}

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
  {
    gc = server.Exp_server.gc;
    points;
    server;
    read_report = Client.report points ~kind:Client.Read;
    update_report = Client.report points ~kind:Client.Update;
  }

let run_scope ~scope ?(jobs = Exp_common.default_jobs ()) () =
  (* One cell per collector; the server run and its replayed YCSB client
     live entirely inside the cell. *)
  match
    Exp_common.Pool.map_list ~jobs
      (fun kind -> one ~scope kind)
      [ Gc_config.ParallelOld; Gc_config.Cms; Gc_config.G1 ]
  with
  | [ parallel_old; cms; g1 ] -> { parallel_old; cms; g1 }
  | _ -> assert false

(* The paper plots only the highest 10000 points of each chart. *)
let top_points e =
  let top =
    Stats.top_k_by
      (fun (p : Client.point) -> p.Client.latency_ms)
      10_000
      (Array.to_list e.points)
  in
  List.partition (fun p -> p.Client.kind = Client.Read) top

let render_one e =
  let reads, updates = top_points e in
  let pts l =
    Array.of_list
      (List.map (fun p -> (p.Client.time_s, p.Client.latency_ms)) l)
  in
  let gc_pts =
    Array.map
      (fun (t, d) -> (t, d *. 1e3))
      e.server.Exp_server.pauses
  in
  Chart.scatter ~x_label:"Time since beginning of experiment (s)"
    ~y_label:"Latency (ms)"
    [
      { Chart.label = "READ"; glyph = 'r'; points = pts reads };
      { Chart.label = "UPDATE"; glyph = 'u'; points = pts updates };
      { Chart.label = "GC (pause, ms)"; glyph = '*'; points = gc_pts };
    ]

let render_figure5 r =
  "Figure 5: application response time for three GC strategies\n\
   (highest 10000 points of each run)\n\n"
  ^ Printf.sprintf "(a) ParallelOld\n%s\n" (render_one r.parallel_old)
  ^ Printf.sprintf "(b) CMS\n%s\n" (render_one r.cms)
  ^ Printf.sprintf "(c) G1\n%s\n" (render_one r.g1)

(* One of Tables 5/6/7, depending on the experiment's collector. *)
let render_table e =
  let t =
    Table.create
      ~columns:
        [ ("", Table.Left); ("READ", Table.Right); ("UPDATE", Table.Right) ]
  in
  let row label f =
    Table.add_row t
      [ label; Table.cell_pct (f e.read_report); Table.cell_pct (f e.update_report) ]
  in
  row "AVG(ms)" (fun r -> r.Stats.avg_ms);
  row "MAX(ms)" (fun r -> r.Stats.max_ms);
  row "MIN(ms)" (fun r -> r.Stats.min_ms);
  Table.add_separator t;
  row "0.5x-1.5x AVG (%reqs)" (fun r -> r.Stats.around_avg.Stats.pct_requests);
  row "0.5x-1.5x AVG (%GCs)" (fun r -> r.Stats.around_avg.Stats.pct_gc);
  let bands =
    max
      (List.length e.read_report.Stats.above)
      (List.length e.update_report.Stats.above)
  in
  for i = 0 to bands - 1 do
    let label r =
      match List.nth_opt r.Stats.above i with
      | Some b -> b.Stats.label
      | None -> Printf.sprintf ">%dx AVG" (1 lsl (i + 1))
    in
    let value f r =
      match List.nth_opt r.Stats.above i with
      | Some b -> f b
      | None -> 0.0
    in
    Table.add_separator t;
    Table.add_row t
      [
        label e.read_report ^ " (%reqs)";
        Table.cell_pct (value (fun b -> b.Stats.pct_requests) e.read_report);
        Table.cell_pct (value (fun b -> b.Stats.pct_requests) e.update_report);
      ];
    Table.add_row t
      [
        label e.read_report ^ " (%GCs)";
        Table.cell_pct (value (fun b -> b.Stats.pct_gc) e.read_report);
        Table.cell_pct (value (fun b -> b.Stats.pct_gc) e.update_report);
      ]
  done;
  Printf.sprintf
    "Latency statistics for READ and UPDATE operations, %s (%d points)\n\n%s"
    e.gc (Array.length e.points) (Table.render t)

let render_tables567 r =
  "Table 5: " ^ render_table r.parallel_old ^ "\nTable 6: "
  ^ render_table r.g1 ^ "\nTable 7: " ^ render_table r.cms
