module Harness = Gcperf_dacapo.Harness
module Suite = Gcperf_dacapo.Suite
module Table = Gcperf_report.Table
module P = Gcperf_workload.Profile

type influence = Helps | Hurts | Indifferent

let influence_to_string = function
  | Helps -> "+"
  | Hurts -> "-"
  | Indifferent -> "="

type cell = {
  bench : string;
  gc : string;
  with_tlab_s : float;
  without_tlab_s : float;
  influence : influence;
}

type result = { cells : cell list }

(* "We computed a 5% deviation from the average execution time.  If the
   difference between the total times with and without TLAB is included
   in [-deviation, deviation], enabling the TLAB brings neither
   improvement nor deterioration." *)
let classify ~deviation ~with_tlab ~without_tlab =
  let avg = (with_tlab +. without_tlab) /. 2.0 in
  let band = deviation *. avg in
  let diff = without_tlab -. with_tlab in
  if diff > band then Helps else if diff < -.band then Hurts else Indifferent

let kind_index kind =
  let rec find i = function
    | [] -> 0
    | k :: tl -> if k = kind then i else find (i + 1) tl
  in
  find 0 Exp_common.all_kinds

let run_scope ~scope ?(jobs = Exp_common.default_jobs ()) () =
  let machine = Exp_common.machine () in
  let iterations = Scope.scaled scope 10 in
  (* One cell per (benchmark, collector): the with/without-TLAB pair
     stays inside the cell because the classification couples the two
     runs. *)
  let cells =
    Exp_common.Pool.map_list ~jobs
      (fun (bench, kind) ->
            let base = Exp_common.baseline kind in
            let cell_seed = Exp_common.seed + (37 * kind_index kind) in
            (* As in the study, the two configurations are measured by two
               separate executions of a noisy benchmark — the 5% band
               exists precisely because run-to-run variation is real. *)
            let with_t =
              Harness.run ~seed:cell_seed ~iterations machine bench
                ~gc:{ base with Gcperf_gc.Gc_config.tlab = true }
                ~system_gc:true ()
            in
            let without_t =
              Harness.run ~seed:(cell_seed + 4241) ~iterations machine bench
                ~gc:{ base with Gcperf_gc.Gc_config.tlab = false }
                ~system_gc:true ()
            in
            {
              bench = bench.Suite.profile.P.name;
              gc = Exp_common.kind_name kind;
              with_tlab_s = with_t.Harness.total_s;
              without_tlab_s = without_t.Harness.total_s;
              influence =
                classify ~deviation:0.05 ~with_tlab:with_t.Harness.total_s
                  ~without_tlab:without_t.Harness.total_s;
            })
      (List.concat_map
         (fun bench ->
           List.map (fun kind -> (bench, kind)) Exp_common.all_kinds)
         Suite.stable_subset)
  in
  { cells }

let render result =
  let gcs = List.map Exp_common.kind_name Exp_common.all_kinds in
  let t =
    Table.create
      ~columns:
        (("Benchmark", Table.Left)
        :: List.map (fun g -> (g, Table.Right)) gcs)
  in
  let benches =
    List.sort_uniq compare (List.map (fun c -> c.bench) result.cells)
  in
  List.iter
    (fun bench ->
      let row =
        List.map
          (fun gc ->
            match
              List.find_opt
                (fun c -> c.bench = bench && c.gc = gc)
                result.cells
            with
            | Some c -> influence_to_string c.influence
            | None -> "?")
          gcs
      in
      Table.add_row t (bench :: row))
    benches;
  "Table 4: TLAB influence over all GCs and the selected subset of\n\
   benchmarks (+ improves, - degrades, = indifferent at a 5% band)\n\n"
  ^ Table.render t
