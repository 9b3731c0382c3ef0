module Harness = Gcperf_dacapo.Harness
module Suite = Gcperf_dacapo.Suite
module Stats = Gcperf_stats.Stats
module Table = Gcperf_report.Table
module P = Gcperf_workload.Profile

type row = {
  bench : string;
  final_rsd_pct : float;
  total_rsd_pct : float;
  runs : int;
}

type result = { rows : row list }

let run_scope ~scope ?(jobs = Exp_common.default_jobs ())
    ?(all_benchmarks = false) () =
  let machine = Exp_common.machine () in
  let runs = Scope.scaled scope 10 in
  let iterations = Scope.scaled scope 10 in
  let benches =
    if all_benchmarks then
      List.filter (fun b -> not b.Suite.crashes) Suite.all
    else Suite.stable_subset
  in
  let gc = Exp_common.baseline Gcperf_gc.Gc_config.ParallelOld in
  (* One cell per replicated run; each builds its own VM from its own
     derived seed, so cells are pure and the pool may run them in any
     order.  Results come back in cell order: chunk [bi] holds bench
     [bi]'s replicates in replicate order, exactly as the sequential
     nested map produced them. *)
  let cells =
    Array.of_list
      (List.concat_map
         (fun bench -> List.init runs (fun i -> (bench, i)))
         benches)
  in
  let results =
    Exp_common.Pool.map_cells ~jobs
      (fun (bench, i) ->
        Harness.run ~seed:(Exp_common.seed + (1009 * i)) ~iterations machine
          bench ~gc ~system_gc:true ())
      cells
  in
  let rows =
    List.mapi
      (fun bi bench ->
        let chunk = Array.sub results (bi * runs) runs in
        let finals = Array.map (fun r -> r.Harness.final_s) chunk in
        let totals = Array.map (fun r -> r.Harness.total_s) chunk in
        {
          bench = bench.Suite.profile.P.name;
          final_rsd_pct = Stats.rsd finals;
          total_rsd_pct = Stats.rsd totals;
          runs;
        })
      benches
  in
  { rows }

let render result =
  let t =
    Table.create
      ~columns:
        [
          ("Benchmark", Table.Left);
          ("Final iteration (%)", Table.Right);
          ("Total execution time (%)", Table.Right);
        ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          r.bench;
          Table.cell_f ~decimals:1 r.final_rsd_pct;
          Table.cell_f ~decimals:1 r.total_rsd_pct;
        ])
    result.rows;
  "Table 2: relative standard deviation of the total execution time and\n\
   final iteration (baseline configuration, system GC between iterations)\n\n"
  ^ Table.render t
