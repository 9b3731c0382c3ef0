module Harness = Gcperf_dacapo.Harness
module Suite = Gcperf_dacapo.Suite
module Table = Gcperf_report.Table
module P = Gcperf_workload.Profile
module A = Artifact

type influence = Helps | Hurts | Indifferent

let influence_to_string = function
  | Helps -> "+"
  | Hurts -> "-"
  | Indifferent -> "="

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

let run_scope (make : A.make) ~scope ?(jobs = Exp_common.default_jobs ()) () =
  let machine = Exp_common.machine () in
  let iterations = Scope.scaled scope 10 in
  (* One cell per (benchmark, collector): the with/without-TLAB pair
     stays inside the cell because the classification couples the two
     runs. *)
  let rows =
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
            A.
              [
                Text bench.Suite.profile.P.name;
                Text (Exp_common.kind_name kind);
                Float with_t.Harness.total_s;
                Float without_t.Harness.total_s;
                Text
                  (influence_to_string
                     (classify ~deviation:0.05
                        ~with_tlab:with_t.Harness.total_s
                        ~without_tlab:without_t.Harness.total_s));
              ])
      (List.concat_map
         (fun bench ->
           List.map (fun kind -> (bench, kind)) Exp_common.all_kinds)
         Suite.stable_subset)
  in
  make ~params:[]
    ~columns:[ "bench"; "gc"; "with_tlab_s"; "without_tlab_s"; "influence" ]
    ~rows

let render a =
  let gcs = A.distinct a "gc" a.A.rows in
  let t =
    Table.create
      ~columns:
        (("Benchmark", Table.Left)
        :: List.map (fun g -> (g, Table.Right)) gcs)
  in
  let benches = List.sort_uniq String.compare (A.distinct a "bench" a.A.rows) in
  List.iter
    (fun bench ->
      let row =
        List.map
          (fun gc ->
            match
              List.find_opt
                (fun row ->
                  A.text a "bench" row = bench && A.text a "gc" row = gc)
                a.A.rows
            with
            | Some row -> A.text a "influence" row
            | None -> "?")
          gcs
      in
      Table.add_row t (bench :: row))
    benches;
  "Table 4: TLAB influence over all GCs and the selected subset of\n\
   benchmarks (+ improves, - degrades, = indifferent at a 5% band)\n\n"
  ^ Table.render t
