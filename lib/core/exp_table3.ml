module Harness = Gcperf_dacapo.Harness
module Suite = Gcperf_dacapo.Suite
module Gc_event = Gcperf_sim.Gc_event
module Table = Gcperf_report.Table
module Gc_config = Gcperf_gc.Gc_config
module A = Artifact

let big_grid () =
  let gb = Exp_common.gb in
  [ (gb 64, gb 6); (gb 64, gb 12); (gb 64, gb 24); (gb 64, gb 48) ]

let ladder () = big_grid () @ Exp_common.small_size_grid ()

(* The paper's table: CMS on h2. *)
let run_scope (make : A.make) ~scope ?(jobs = Exp_common.default_jobs ()) () =
  let machine = Exp_common.machine () in
  let kind = Gc_config.Cms and bench = "h2" in
  let b = Option.get (Suite.find bench) in
  let iterations = Scope.scaled scope 10 in
  let grid = ladder () in
  (* Each grid point is an independent cell: own VM, own heap, shared
     read-only machine. *)
  let rows =
    Exp_common.Pool.map_list ~jobs
      (fun (heap, young) ->
        let gc = Exp_common.config kind ~heap ~young () in
        let r =
          Harness.run ~seed:Exp_common.seed ~iterations machine b ~gc
            ~system_gc:false ()
        in
        (* Count stop-the-world pauses, as a gc.log analysis would. *)
        let pauses = List.length r.Harness.events in
        let fulls =
          List.length
            (List.filter
               (fun e -> Gc_event.is_full e.Gc_event.kind)
               r.Harness.events)
        in
        let total_pause =
          List.fold_left
            (fun acc e -> acc +. (e.Gc_event.duration_us /. 1e6))
            0.0 r.Harness.events
        in
        A.
          [
            Int heap;
            Int young;
            Int pauses;
            Int fulls;
            Float
              (if pauses = 0 then 0.0 else total_pause /. float_of_int pauses);
            Float total_pause;
            Float r.Harness.total_s;
            Bool r.Harness.oom;
          ])
      grid
  in
  make
    ~params:[ ("collector", Gc_config.kind_to_string kind); ("bench", bench) ]
    ~columns:
      [
        "heap_bytes";
        "young_bytes";
        "pauses";
        "full_pauses";
        "avg_pause_s";
        "total_pause_s";
        "total_exec_s";
        "oom";
      ]
    ~rows

let size_label bytes =
  let mb = bytes / (1024 * 1024) in
  if mb >= 1024 && mb mod 1024 = 0 then Printf.sprintf "%dGB" (mb / 1024)
  else Printf.sprintf "%dMB" mb

let render a =
  let t =
    Table.create
      ~columns:
        [
          ("Heap-YoungGen size", Table.Left);
          ("#pauses (full)", Table.Right);
          ("AVG pause time(s)", Table.Right);
          ("Total pause time(s)", Table.Right);
          ("Total execution time(s)", Table.Right);
        ]
  in
  List.iteri
    (fun i row ->
      if i = 4 then Table.add_separator t;
      Table.add_row t
        [
          Printf.sprintf "%s-%s%s"
            (size_label (A.int a "heap_bytes" row))
            (size_label (A.int a "young_bytes" row))
            (if A.bool a "oom" row then " (OOM)" else "");
          Printf.sprintf "%d(%d)" (A.int a "pauses" row)
            (A.int a "full_pauses" row);
          Table.cell_f (A.float a "avg_pause_s" row);
          Table.cell_f (A.float a "total_pause_s" row);
          Table.cell_f (A.float a "total_exec_s" row);
        ])
    a.A.rows;
  Printf.sprintf
    "Table 3: statistics for the %s benchmark with different heap and\n\
     Young Generation sizes (%s)\n\n%s"
    (A.param a "bench") (A.param a "collector") (Table.render t)
