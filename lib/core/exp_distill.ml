module Harness = Gcperf_dacapo.Harness
module Suite = Gcperf_dacapo.Suite
module Gc_config = Gcperf_gc.Gc_config
module Table = Gcperf_report.Table
module Chart = Gcperf_report.Chart
module Telemetry = Gcperf_telemetry.Telemetry
module Gc_event = Gcperf_sim.Gc_event
module Distill = Gcperf_distill.Distill

(* Distilled cost of every collector (LBO methodology, DESIGN.md §18).

   For each (heap, young) point of the Table 3 ladder, run h2 under all
   eight collectors with telemetry on, synthesise the ideal-GC baseline
   from the recorded mutator timeline (collector costs struck out,
   allocation tax retained) and report the distilled cost
   (t_real − t_ideal)/t_ideal split into stop-the-world, concurrent
   core-steal and mutator-tax shares.  Pause-time rankings hide the
   barrier/journal tax the pauseless family charges on every mutator
   quantum; this table prices it. *)

type cell = {
  gc : string;
  heap_bytes : int;
  young_bytes : int;
  oom : bool;
  cost : Distill.cost;
}

type result = { scope : Scope.t; bench : string; cells : cell list }

let bench_name = "h2"
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
  {
    gc = Gc_config.kind_to_string kind;
    heap_bytes = heap;
    young_bytes = young;
    oom = r.Harness.oom;
    cost = Distill.of_run telemetry log;
  }

let run_scope ~scope ?(jobs = Exp_common.default_jobs ()) () =
  let machine = Exp_common.machine () in
  let bench =
    match Suite.find bench_name with
    | Some b -> b
    | None -> invalid_arg ("Exp_distill: unknown benchmark " ^ bench_name)
  in
  let iterations = Scope.scaled scope 10 in
  let grid = Scope.grid scope (ladder ()) in
  let cells =
    Exp_common.Pool.map_list ~jobs
      (fun c -> one ~machine ~bench ~iterations c)
      (List.concat_map
         (fun pt -> List.map (fun k -> (pt, k)) (kinds ()))
         grid)
  in
  { scope; bench = bench_name; cells }

let size_label bytes =
  let mb = bytes / (1024 * 1024) in
  if mb >= 1024 && mb mod 1024 = 0 then Printf.sprintf "%dGB" (mb / 1024)
  else Printf.sprintf "%dMB" mb

let point_label c =
  Printf.sprintf "%s-%s" (size_label c.heap_bytes) (size_label c.young_bytes)

(* Mean distilled cost per collector over the non-OOM cells, in
   first-seen (= extended_kinds) order. *)
let ranking cells =
  let order = ref [] in
  let sums = Hashtbl.create 8 in
  List.iter
    (fun c ->
      if not (Hashtbl.mem sums c.gc) then begin
        order := c.gc :: !order;
        Hashtbl.add sums c.gc (0.0, 0)
      end;
      if not c.oom then begin
        let s, n = Hashtbl.find sums c.gc in
        Hashtbl.replace sums c.gc (s +. c.cost.Distill.distilled, n + 1)
      end)
    cells;
  List.rev !order
  |> List.map (fun gc ->
         let s, n = Hashtbl.find sums gc in
         (gc, if n = 0 then Float.infinity else s /. float_of_int n))
  |> List.stable_sort (fun (_, a) (_, b) -> Float.compare a b)

let phase_total c p =
  match List.assoc_opt p c.cost.Distill.components.Distill.phases with
  | Some v -> v
  | None -> 0.0

let render r =
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
  let last_point = ref "" in
  List.iter
    (fun c ->
      let pt = point_label c in
      if pt <> !last_point then begin
        last_point := pt;
        Table.add_separator t
      end;
      let k = c.cost in
      Table.add_row t
        [
          (c.gc ^ if c.oom then " [OOM]" else "");
          pt;
          Table.cell_f (k.Distill.t_ideal_us /. 1e6);
          Table.cell_f (k.Distill.t_real_us /. 1e6);
          Table.cell_f ~decimals:4 k.Distill.distilled;
          Table.cell_f ~decimals:4 k.Distill.stw_over;
          Table.cell_f ~decimals:4 k.Distill.steal_over;
          Table.cell_f ~decimals:4 k.Distill.tax_over;
        ])
    r.cells;
  (* Per-phase STW breakdown at the first ladder point (the paper's
     64 GB deployment size): where the stop-the-world share is spent. *)
  let first_pt =
    match r.cells with [] -> "" | c :: _ -> point_label c
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
      (fun c ->
        if point_label c = first_pt then begin
          let p ph = phase_total c ph /. 1e6 in
          let named =
            p Gc_event.Safepoint +. p Gc_event.Mark +. p Gc_event.Copy
            +. p Gc_event.Promote +. p Gc_event.Compact +. p Gc_event.Remap
            +. p Gc_event.Fold
          in
          let total = c.cost.Distill.components.Distill.stw_us /. 1e6 in
          Table.add_row pt
            [
              c.gc;
              Table.cell_f ~decimals:3 (p Gc_event.Safepoint);
              Table.cell_f ~decimals:3 (p Gc_event.Mark);
              Table.cell_f ~decimals:3 (p Gc_event.Copy);
              Table.cell_f ~decimals:3 (p Gc_event.Promote);
              Table.cell_f ~decimals:3 (p Gc_event.Compact);
              Table.cell_f ~decimals:3 (p Gc_event.Remap);
              Table.cell_f ~decimals:3 (p Gc_event.Fold);
              Table.cell_f ~decimals:3 (Float.max 0.0 (total -. named));
            ]
        end)
      r.cells;
    Table.render pt
  in
  let rank = ranking r.cells in
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
    (fun c ->
      let pt = point_label c in
      if not (List.mem pt !points) then points := pt :: !points)
    r.cells;
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
                (fun c ->
                  if c.gc = gc && not c.oom then
                    match index_of (point_label c) with
                    | Some idx ->
                        Some (float_of_int idx, c.cost.Distill.distilled)
                    | None -> None
                  else None)
                r.cells
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
     (seed %d)\n\n\
     %s\n\
     Stop-the-world phase breakdown at %s:\n\n\
     %s\n\
     %s%s"
    r.bench Exp_common.seed (Table.render t) first_pt pt_table bars curve
