module Harness = Gcperf_dacapo.Harness
module Suite = Gcperf_dacapo.Suite
module Gc_event = Gcperf_sim.Gc_event
module Table = Gcperf_report.Table
module Gc_config = Gcperf_gc.Gc_config

type row = {
  heap_bytes : int;
  young_bytes : int;
  pauses : int;
  full_pauses : int;
  avg_pause_s : float;
  total_pause_s : float;
  total_exec_s : float;
  oom : bool;
}

type result = { rows : row list; collector : string; bench : string }

let big_grid () =
  let gb = Exp_common.gb in
  [ (gb 64, gb 6); (gb 64, gb 12); (gb 64, gb 24); (gb 64, gb 48) ]

let ladder () = big_grid () @ Exp_common.small_size_grid ()

let run_scope ~scope ?(jobs = Exp_common.default_jobs ())
    ?(kind = Gc_config.Cms) ?(bench = "h2") () =
  let machine = Exp_common.machine () in
  let b =
    match Suite.find bench with
    | Some b -> b
    | None -> invalid_arg ("Exp_table3: unknown benchmark " ^ bench)
  in
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
        {
          heap_bytes = heap;
          young_bytes = young;
          pauses;
          full_pauses = fulls;
          avg_pause_s =
            (if pauses = 0 then 0.0 else total_pause /. float_of_int pauses);
          total_pause_s = total_pause;
          total_exec_s = r.Harness.total_s;
          oom = r.Harness.oom;
        })
      grid
  in
  { rows; collector = Gc_config.kind_to_string kind; bench }

let size_label bytes =
  let mb = bytes / (1024 * 1024) in
  if mb >= 1024 && mb mod 1024 = 0 then Printf.sprintf "%dGB" (mb / 1024)
  else Printf.sprintf "%dMB" mb

let render result =
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
    (fun i r ->
      if i = 4 then Table.add_separator t;
      Table.add_row t
        [
          Printf.sprintf "%s-%s%s"
            (size_label r.heap_bytes)
            (size_label r.young_bytes)
            (if r.oom then " (OOM)" else "");
          Printf.sprintf "%d(%d)" r.pauses r.full_pauses;
          Table.cell_f r.avg_pause_s;
          Table.cell_f r.total_pause_s;
          Table.cell_f r.total_exec_s;
        ])
    result.rows;
  Printf.sprintf
    "Table 3: statistics for the %s benchmark with different heap and\n\
     Young Generation sizes (%s)\n\n%s"
    result.bench result.collector (Table.render t)
