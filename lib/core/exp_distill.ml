module Harness = Gcperf_dacapo.Harness
module Suite = Gcperf_dacapo.Suite
module Gc_config = Gcperf_gc.Gc_config
module Table = Gcperf_report.Table
module Chart = Gcperf_report.Chart
module Telemetry = Gcperf_telemetry.Telemetry
module Gc_event = Gcperf_sim.Gc_event
module Distill = Gcperf_distill.Distill
module A = Artifact

(* Distilled cost of every collector (LBO methodology, DESIGN.md §18).

   For each (heap, young) point of the Table 3 ladder, run h2 under all
   eight collectors with telemetry on, synthesise the ideal-GC baseline
   from the recorded mutator timeline (collector costs struck out,
   allocation tax retained) and report the distilled cost
   (t_real − t_ideal)/t_ideal split into stop-the-world, concurrent
   core-steal and mutator-tax shares.  Pause-time rankings hide the
   barrier/journal tax the pauseless family charges on every mutator
   quantum; this table prices it. *)

let kinds () = Gc_config.extended_kinds

(* The Table 3 ladder with the small-memory block first: ci scope cuts
   the grid to its first point, and under ci's two iterations the 64 GB
   points never collect — leading with 1 GB-200 MB gives the ci golden
   nonzero STW/steal/tax shares for every collector. *)
let ladder () =
  let big, small =
    List.partition (fun (h, _) -> h > Exp_common.gb 1) (Exp_table3.ladder ())
  in
  small @ big

(* The stop-the-world phases the breakdown names, in column order. *)
let phases =
  Gc_event.
    [
      ("safepoint_s", Safepoint);
      ("mark_s", Mark);
      ("copy_s", Copy);
      ("promote_s", Promote);
      ("compact_s", Compact);
      ("remap_s", Remap);
      ("fold_s", Fold);
    ]

let one ~machine ~bench ~iterations ((heap, young), kind) =
  (* Per-cell registry: observation only, so enabling it cannot perturb
     the run (Telemetry's non-perturbation invariant) — the sweep stays
     byte-identical at any --jobs. *)
  let telemetry = Telemetry.create ~enabled:true () in
  let gc = Exp_common.config kind ~heap ~young () in
  let r, log =
    Harness.run_with_log ~telemetry ~seed:Exp_common.seed ~iterations machine
      bench ~gc ~system_gc:false ()
  in
  let k = Distill.of_run telemetry log in
  let cm = k.Distill.components in
  let phase p =
    match List.assoc_opt p cm.Distill.phases with
    | Some v -> v /. 1e6
    | None -> 0.0
  in
  let named = List.fold_left (fun acc (_, p) -> acc +. phase p) 0.0 phases in
  A.
    [
      Text (Gc_config.kind_to_string kind);
      Int heap;
      Int young;
      Float (k.Distill.t_ideal_us /. 1e6);
      Float (k.Distill.t_real_us /. 1e6);
      Float k.Distill.distilled;
      Float k.Distill.stw_over;
      Float k.Distill.steal_over;
      Float k.Distill.tax_over;
      Float (cm.Distill.stw_us /. 1e6);
      Float (cm.Distill.steal_us /. 1e6);
      Float (cm.Distill.tax_us /. 1e6);
      Float (cm.Distill.alloc_us /. 1e6);
      Bool r.Harness.oom;
    ]
  @ List.map (fun (_, p) -> A.Float (phase p)) phases
  @ A.[ Float (Float.max 0.0 ((cm.Distill.stw_us /. 1e6) -. named)) ]

let run_scope (make : A.make) ~scope ?(jobs = Exp_common.default_jobs ()) () =
  let machine = Exp_common.machine () in
  let bench_name = "h2" in
  let bench = Option.get (Suite.find bench_name) in
  let iterations = Scope.scaled scope 10 in
  let grid = Scope.grid scope (ladder ()) in
  let rows =
    Exp_common.Pool.map_list ~jobs
      (fun c -> one ~machine ~bench ~iterations c)
      (List.concat_map
         (fun pt -> List.map (fun k -> (pt, k)) (kinds ()))
         grid)
  in
  make
    ~params:
      [ ("bench", bench_name); ("seed", string_of_int Exp_common.seed) ]
    ~columns:
      ([
         "gc";
         "heap_bytes";
         "young_bytes";
         "t_ideal_s";
         "t_real_s";
         "distilled";
         "stw_over";
         "steal_over";
         "tax_over";
         "stw_s";
         "steal_s";
         "tax_s";
         "alloc_s";
         "oom";
       ]
      @ List.map fst phases @ [ "other_s" ])
    ~rows

let size_label bytes =
  let mb = bytes / (1024 * 1024) in
  if mb >= 1024 && mb mod 1024 = 0 then Printf.sprintf "%dGB" (mb / 1024)
  else Printf.sprintf "%dMB" mb

let point_label a row =
  Printf.sprintf "%s-%s"
    (size_label (A.int a "heap_bytes" row))
    (size_label (A.int a "young_bytes" row))

(* Mean distilled cost per collector over the non-OOM rows, in
   first-seen (= extended_kinds) order. *)
let ranking a =
  let order = ref [] in
  let sums = Hashtbl.create 8 in
  List.iter
    (fun row ->
      let gc = A.text a "gc" row in
      if not (Hashtbl.mem sums gc) then begin
        order := gc :: !order;
        Hashtbl.add sums gc (0.0, 0)
      end;
      if not (A.bool a "oom" row) then begin
        let s, n = Hashtbl.find sums gc in
        Hashtbl.replace sums gc (s +. A.float a "distilled" row, n + 1)
      end)
    a.A.rows;
  List.rev !order
  |> List.map (fun gc ->
         let s, n = Hashtbl.find sums gc in
         (gc, if n = 0 then Float.infinity else s /. float_of_int n))
  |> List.stable_sort (fun (_, a) (_, b) -> Float.compare a b)

let render a =
  let t =
    Table.create
      ~columns:
        [
          ("GC", Table.Left);
          ("Heap-YoungGen", Table.Left);
          ("t_ideal(s)", Table.Right);
          ("t_real(s)", Table.Right);
          ("distilled", Table.Right);
          ("stw", Table.Right);
          ("steal", Table.Right);
          ("mutator tax", Table.Right);
        ]
  in
  let f ?decimals column row = Table.cell_f ?decimals (A.float a column row) in
  let gc_label row =
    A.text a "gc" row ^ if A.bool a "oom" row then " [OOM]" else ""
  in
  let last_point = ref "" in
  List.iter
    (fun row ->
      let pt = point_label a row in
      if pt <> !last_point then begin
        last_point := pt;
        Table.add_separator t
      end;
      Table.add_row t
        [
          gc_label row;
          pt;
          f "t_ideal_s" row;
          f "t_real_s" row;
          f ~decimals:4 "distilled" row;
          f ~decimals:4 "stw_over" row;
          f ~decimals:4 "steal_over" row;
          f ~decimals:4 "tax_over" row;
        ])
    a.A.rows;
  (* Per-phase STW breakdown at the first ladder point (the paper's
     64 GB deployment size): where the stop-the-world share is spent. *)
  let first_pt =
    match a.A.rows with [] -> "" | row :: _ -> point_label a row
  in
  let pt_table =
    let pt =
      Table.create
        ~columns:
          [
            ("GC", Table.Left);
            ("safepoint(s)", Table.Right);
            ("mark(s)", Table.Right);
            ("copy(s)", Table.Right);
            ("promote(s)", Table.Right);
            ("compact(s)", Table.Right);
            ("remap(s)", Table.Right);
            ("fold(s)", Table.Right);
            ("other(s)", Table.Right);
          ]
    in
    List.iter
      (fun row ->
        if point_label a row = first_pt then
          Table.add_row pt
            (A.text a "gc" row
            :: List.map
                 (fun column -> f ~decimals:3 column row)
                 (List.map fst phases @ [ "other_s" ])))
      a.A.rows;
    Table.render pt
  in
  let rank = ranking a in
  let bars =
    Chart.bars ~title:"Mean distilled cost (lower is better)"
      (List.map
         (fun (gc, v) ->
           (gc, if Float.is_finite v then v else 0.0))
         rank)
  in
  (* Distilled-cost curve across the ladder: one series per collector,
     x = ladder point index. *)
  let points = ref [] in
  List.iter
    (fun row ->
      let pt = point_label a row in
      if not (List.mem pt !points) then points := pt :: !points)
    a.A.rows;
  let points = List.rev !points in
  let glyph_of = function
    | "SerialGC" -> 'S'
    | "ParNewGC" -> 'N'
    | "ParallelGC" -> 'P'
    | "ParallelOldGC" -> 'O'
    | "ConcMarkSweepGC" -> 'C'
    | "G1GC" -> 'G'
    | "ConcurrentRegionsGC" -> 'R'
    | "JournalRCGC" -> 'J'
    | s -> if s = "" then '*' else s.[0]
  in
  let curve =
    if List.length points < 2 then ""
    else
      let index_of p =
        let rec go i = function
          | [] -> None
          | q :: _ when q = p -> Some i
          | _ :: tl -> go (i + 1) tl
        in
        go 0 points
      in
      let series =
        List.map
          (fun (gc, _) ->
            let pts =
              List.filter_map
                (fun row ->
                  if A.text a "gc" row = gc && not (A.bool a "oom" row) then
                    match index_of (point_label a row) with
                    | Some idx ->
                        Some (float_of_int idx, A.float a "distilled" row)
                    | None -> None
                  else None)
                a.A.rows
              |> Array.of_list
            in
            { Chart.label = gc; glyph = glyph_of gc; points = pts })
          rank
      in
      "\n\nDistilled cost across the ladder (x = ladder point index, in\n\
       table order):\n\n"
      ^ Chart.line ~x_label:"ladder point" ~y_label:"distilled" series
  in
  Printf.sprintf
    "Distilled collector cost (LBO): for each Table 3 heap point, the\n\
     ideal-GC baseline replays the recorded mutator timeline of the %s\n\
     benchmark with collector costs struck out (allocation tax kept);\n\
     distilled = (t_real - t_ideal)/t_ideal, split into stop-the-world,\n\
     concurrent core-steal and barrier/journal mutator-tax shares\n\
     (seed %s)\n\n\
     %s\n\
     Stop-the-world phase breakdown at %s:\n\n\
     %s\n\
     %s%s"
    (A.param a "bench") (A.param a "seed") (Table.render t) first_pt pt_table
    bars curve
