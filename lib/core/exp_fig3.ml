module Harness = Gcperf_dacapo.Harness
module Suite = Gcperf_dacapo.Suite
module Chart = Gcperf_report.Chart

type ranking = (string * float) list

type result = {
  with_system_gc : ranking;
  without_system_gc : ranking;
  experiments : int;
}

let kind_index kind =
  let rec find i = function
    | [] -> 0
    | k :: tl -> if k = kind then i else find (i + 1) tl
  in
  find 0 Exp_common.all_kinds

let run_scope ~scope ?(jobs = Exp_common.default_jobs ()) () =
  let machine = Exp_common.machine () in
  let iterations = Scope.scaled scope 10 in
  let grid = Scope.grid scope (Exp_common.size_grid ()) in
  let benches = Suite.stable_subset in
  let kinds = Exp_common.all_kinds in
  let nkinds = List.length kinds in
  let mode system_gc =
    (* Flatten benchmark x sizes x collector into one cell array; each
       cell is a single run.  The win tally below walks the results in
       cell order, consuming [nkinds] consecutive runs per experiment —
       the same grouping the sequential nested loops produced. *)
    let cells =
      Array.of_list
        (List.concat_map
           (fun bench ->
             List.concat_map
               (fun (heap, young) ->
                 List.map (fun kind -> (bench, heap, young, kind)) kinds)
               grid)
           benches)
    in
    let runs =
      Exp_common.Pool.map_cells ~jobs
        (fun (bench, heap, young, kind) ->
          let gc = Exp_common.config kind ~heap ~young () in
          (* Every (benchmark, sizes, collector) run is a separate
             noisy execution, as in the study: close races are
             decided by run-to-run variation, not by list order. *)
          Harness.run
            ~seed:(Exp_common.seed + (37 * kind_index kind))
            ~iterations machine bench ~gc ~system_gc ())
        cells
    in
    let wins = Hashtbl.create 8 in
    let experiments = ref 0 in
    let n_experiments = Array.length cells / nkinds in
    for e = 0 to n_experiments - 1 do
      incr experiments;
      let group =
        List.init nkinds (fun k -> runs.((e * nkinds) + k))
      in
      match Harness.best_of group with
      | None -> ()
      | Some best ->
          let k = best.Harness.gc_name in
          Hashtbl.replace wins k
            (1 + Option.value ~default:0 (Hashtbl.find_opt wins k))
    done;
    let total = float_of_int !experiments in
    let ranking =
      List.filter_map
        (fun kind ->
          let name = Exp_common.kind_name kind in
          match Hashtbl.find_opt wins name with
          | None -> Some (name, 0.0)
          | Some n -> Some (name, 100.0 *. float_of_int n /. total))
        Exp_common.all_kinds
      |> List.sort (fun (_, a) (_, b) -> compare b a)
    in
    (ranking, !experiments)
  in
  let with_sys, n = mode true in
  let without_sys, _ = mode false in
  { with_system_gc = with_sys; without_system_gc = without_sys; experiments = n }

let render result =
  let part title ranking =
    Chart.bars ~title (List.filter (fun (_, v) -> v >= 0.0) ranking)
  in
  Printf.sprintf
    "Figure 3: GC ranking according to the number of experiments in which\n\
     they performed the best (%d experiments per mode)\n\n%s\n%s"
    result.experiments
    (part "(a) System GC — percent of experiments won" result.with_system_gc)
    (part "(b) No System GC — percent of experiments won"
       result.without_system_gc)
