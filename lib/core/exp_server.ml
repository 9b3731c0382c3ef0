module Vm = Gcperf_runtime.Vm
module Server = Gcperf_kvstore.Server
module Gc_event = Gcperf_sim.Gc_event
module Gc_config = Gcperf_gc.Gc_config
module Chart = Gcperf_report.Chart
module Table = Gcperf_report.Table
module A = Artifact

type server_run = {
  gc : string;
  config_name : string;
  duration_s : float;
  pauses : (float * float) array;
  intervals : (float * float) array;
  db_timeline : (float * int) array;
  young_max_s : float;
  full_max_s : float;
  full_count : int;
  max_pause_s : float;
  oom : bool;
}

(* The study's server deployment: 64 GB fixed heap, 12 GB young
   generation ("around one fourth of the total memory" per the JVM
   recommendation the authors follow). *)
let server_gc kind =
  Gc_config.default kind ~heap_bytes:(Exp_common.gb 64)
    ~young_bytes:(Exp_common.gb 12)

let load_ops_per_s = 420.0
let transaction_ops_per_s = 1500.0
let transaction_read_frac = 0.88
let transaction_insert_frac = 0.02
let preload_bytes = Exp_common.gb 22

let summarise vm ~gc ~config_name ~oom =
  let events = Vm.events vm in
  let all = Gc_event.events events in
  let pauses =
    Array.of_list
      (List.map
         (fun e ->
           (e.Gc_event.start_us /. 1e6, e.Gc_event.duration_us /. 1e6))
         all)
  in
  let max_of kinds =
    List.fold_left
      (fun acc e ->
        if List.mem e.Gc_event.kind kinds then
          Float.max acc (e.Gc_event.duration_us /. 1e6)
        else acc)
      0.0 all
  in
  {
    gc;
    config_name;
    duration_s = Vm.now_s vm;
    pauses;
    intervals = Gc_event.intervals events;
    db_timeline = [||];
    young_max_s = max_of [ Gc_event.Young; Gc_event.Mixed ];
    full_max_s = max_of [ Gc_event.Full ];
    full_count = Gc_event.count_full events;
    max_pause_s = Gc_event.max_pause_s events;
    oom;
  }

let run_server_config ~scope ~label ~config:gc ~stress ~hours () =
  let machine = Exp_common.machine () in
  let vm = Vm.create machine gc ~seed:Exp_common.seed in
  let config =
    if stress then Server.stress_config ~heap_bytes:gc.Gc_config.heap_bytes
    else Server.default_config
  in
  let server = Server.create vm config ~seed:(Exp_common.seed + 1) in
  let hours = Scope.hours scope hours in
  let oom = ref false in
  (try
     if stress then begin
       (* Pre-loaded database: the server replays its commit log before
          serving, exactly as the paper's stressed Cassandra must. *)
       Server.replay_commitlog server
         ~target_bytes:(Scope.bytes scope preload_bytes);
       Server.run server ~duration_s:(hours *. 3600.0)
         ~ops_per_s:transaction_ops_per_s ~read_frac:transaction_read_frac
         ~insert_frac:transaction_insert_frac
     end
     else
       (* Default configuration: the YCSB client is in its loading phase,
          continuously populating the database. *)
       Server.run server ~duration_s:(hours *. 3600.0)
         ~ops_per_s:load_ops_per_s ~read_frac:0.0 ~insert_frac:1.0
   with Gcperf_gc.Gc_ctx.Out_of_memory _ -> oom := true);
  let run =
    summarise vm ~gc:label
      ~config_name:(if stress then "stress" else "default")
      ~oom:!oom
  in
  { run with db_timeline = Server.db_size_timeline server }

let run_server_scope ~scope ~kind ~stress ~hours () =
  run_server_config ~scope
    ~label:(Gc_config.kind_to_string kind)
    ~config:(server_gc kind) ~stress ~hours ()

(* The summary columns of one server run; Figure 4 and the ParallelOld
   analysis share them. *)
let run_columns =
  [
    "experiment";
    "gc";
    "config";
    "duration_s";
    "pauses";
    "max_pause_s";
    "full_count";
    "full_max_s";
    "young_max_s";
    "oom";
  ]

let run_row ~experiment r =
  A.
    [
      Text experiment;
      Text r.gc;
      Text r.config_name;
      Float r.duration_s;
      Int (Array.length r.pauses);
      Float r.max_pause_s;
      Int r.full_count;
      Float r.full_max_s;
      Float r.young_max_s;
      Bool r.oom;
    ]

let figure4 (make : A.make) ~scope ?(jobs = Exp_common.default_jobs ()) () =
  (* Two independent server runs (CMS, G1); each cell builds its own VM
     and server from fixed seeds. *)
  let runs =
    Exp_common.Pool.map_list ~jobs
      (fun kind -> run_server_scope ~scope ~kind ~stress:true ~hours:2.0 ())
      [ Gc_config.Cms; Gc_config.G1 ]
  in
  let rows r =
    ((A.Text "run" :: run_row ~experiment:"stress" r)
    @ A.[ Float 0.0; Float 0.0 ])
    :: List.map
         (fun (start, d) ->
           A.
             [
               Text "pause";
               Text "stress";
               Text r.gc;
               Text r.config_name;
               Float 0.0;
               Int 0;
               Float 0.0;
               Int 0;
               Float 0.0;
               Float 0.0;
               Bool false;
               Float start;
               Float d;
             ])
         (Array.to_list r.pauses)
  in
  make ~params:[]
    ~columns:(("row_kind" :: run_columns) @ [ "start_s"; "pause_s" ])
    ~rows:(List.concat_map rows runs)

let render_figure4 a =
  let runs = A.where a "row_kind" "run" in
  let pauses gc =
    Array.of_list
      (List.filter_map
         (fun row ->
           if A.text a "gc" row <> gc then None
           else Some (A.float a "start_s" row, A.float a "pause_s" row))
         (A.where a "row_kind" "pause"))
  in
  let labels = [ ("CMS", 'C'); ("G1", 'G') ] in
  let series =
    List.map2
      (fun (label, glyph) row ->
        { Chart.label; glyph; points = pauses (A.text a "gc" row) })
      labels runs
  in
  let summary (label, _) row =
    Printf.sprintf "%-4s %d pauses, max %.2fs (full: %d, max %.2fs)%s\n"
      (label ^ ":") (A.int a "pauses" row)
      (A.float a "max_pause_s" row)
      (A.int a "full_count" row)
      (A.float a "full_max_s" row)
      (if A.bool a "oom" row then " [OOM]" else "")
  in
  Printf.sprintf
    "Figure 4: application pauses for ConcurrentMarkSweep (CMS) and G1\n\
     garbage collectors with the key-value store server (stress test)\n\n\
     %s\n\
     %s"
    (Chart.scatter ~x_label:"Elapsed time (s)" ~y_label:"GC pause duration (s)"
       series)
    (String.concat "" (List.map2 summary labels runs))

let parallel_old (make : A.make) ~scope ?(jobs = Exp_common.default_jobs ()) ()
    =
  let runs =
    Exp_common.Pool.map_list ~jobs
      (fun (experiment, stress, hours) ->
        run_row ~experiment
          (run_server_scope ~scope ~kind:Gc_config.ParallelOld ~stress ~hours
             ()))
      [
        ("1h-load", false, 1.0); ("2h-load", false, 2.0); ("stress", true, 2.0);
      ]
  in
  make ~params:[] ~columns:run_columns ~rows:runs

let render_parallel_old a =
  let t =
    Table.create
      ~columns:
        [
          ("Experiment", Table.Left);
          ("Duration (s)", Table.Right);
          ("#pauses", Table.Right);
          ("Max young pause (s)", Table.Right);
          ("Full GCs", Table.Right);
          ("Max full pause (s)", Table.Right);
        ]
  in
  List.iter
    (fun row ->
      let label =
        match A.text a "experiment" row with
        | "1h-load" -> "default, 1h load"
        | "2h-load" -> "default, 2h load"
        | "stress" -> "stress, 2h"
        | e -> e
      in
      Table.add_row t
        [
          (label ^ if A.bool a "oom" row then " [OOM]" else "");
          Table.cell_f ~decimals:0 (A.float a "duration_s" row);
          string_of_int (A.int a "pauses" row);
          Table.cell_f (A.float a "young_max_s" row);
          string_of_int (A.int a "full_count" row);
          Table.cell_f (A.float a "full_max_s" row);
        ])
    a.A.rows;
  "ParallelOld on the key-value server (4.1): young pauses grow to tens\n\
   of seconds; the second hour triggers a full collection of minutes\n\n"
  ^ Table.render t
