module Vm = Gcperf_runtime.Vm
module Server = Gcperf_kvstore.Server
module Gc_event = Gcperf_sim.Gc_event
module Gc_config = Gcperf_gc.Gc_config
module Chart = Gcperf_report.Chart
module Table = Gcperf_report.Table

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

type figure4 = { cms : server_run; g1 : server_run }

let figure4_scope ~scope ?(jobs = Exp_common.default_jobs ()) () =
  (* Two independent server runs (CMS, G1); each cell builds its own VM
     and server from fixed seeds. *)
  match
    Exp_common.Pool.map_list ~jobs
      (fun kind -> run_server_scope ~scope ~kind ~stress:true ~hours:2.0 ())
      [ Gc_config.Cms; Gc_config.G1 ]
  with
  | [ cms; g1 ] -> { cms; g1 }
  | _ -> assert false

let render_figure4 f =
  let series =
    [
      { Chart.label = "CMS"; glyph = 'C'; points = f.cms.pauses };
      { Chart.label = "G1"; glyph = 'G'; points = f.g1.pauses };
    ]
  in
  Printf.sprintf
    "Figure 4: application pauses for ConcurrentMarkSweep (CMS) and G1\n\
     garbage collectors with the key-value store server (stress test)\n\n\
     %s\n\
     CMS: %d pauses, max %.2fs (full: %d, max %.2fs)%s\n\
     G1:  %d pauses, max %.2fs (full: %d, max %.2fs)%s\n"
    (Chart.scatter ~x_label:"Elapsed time (s)" ~y_label:"GC pause duration (s)"
       series)
    (Array.length f.cms.pauses)
    f.cms.max_pause_s f.cms.full_count f.cms.full_max_s
    (if f.cms.oom then " [OOM]" else "")
    (Array.length f.g1.pauses)
    f.g1.max_pause_s f.g1.full_count f.g1.full_max_s
    (if f.g1.oom then " [OOM]" else "")

type parallel_old_analysis = {
  one_hour : server_run;
  two_hours : server_run;
  stress : server_run;
}

let parallel_old_analysis_scope ~scope ?(jobs = Exp_common.default_jobs ())
    () =
  match
    Exp_common.Pool.map_list ~jobs
      (fun (stress, hours) ->
        run_server_scope ~scope ~kind:Gc_config.ParallelOld ~stress ~hours ())
      [ (false, 1.0); (false, 2.0); (true, 2.0) ]
  with
  | [ one_hour; two_hours; stress ] -> { one_hour; two_hours; stress }
  | _ -> assert false

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
  let row label r =
    Table.add_row t
      [
        label ^ (if r.oom then " [OOM]" else "");
        Table.cell_f ~decimals:0 r.duration_s;
        string_of_int (Array.length r.pauses);
        Table.cell_f r.young_max_s;
        string_of_int r.full_count;
        Table.cell_f r.full_max_s;
      ]
  in
  row "default, 1h load" a.one_hour;
  row "default, 2h load" a.two_hours;
  row "stress, 2h" a.stress;
  "ParallelOld on the key-value server (4.1): young pauses grow to tens\n\
   of seconds; the second hour triggers a full collection of minutes\n\n"
  ^ Table.render t
