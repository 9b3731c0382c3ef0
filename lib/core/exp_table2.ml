module Harness = Gcperf_dacapo.Harness
module Suite = Gcperf_dacapo.Suite
module Stats = Gcperf_stats.Stats
module Table = Gcperf_report.Table
module P = Gcperf_workload.Profile
module A = Artifact

let run_scope (make : A.make) ~scope ?(jobs = Exp_common.default_jobs ()) () =
  let machine = Exp_common.machine () in
  let runs = Scope.scaled scope 10 in
  let iterations = Scope.scaled scope 10 in
  let benches = Suite.stable_subset in
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
        A.
          [
            Text bench.Suite.profile.P.name;
            Float (Stats.rsd finals);
            Float (Stats.rsd totals);
            Int runs;
          ])
      benches
  in
  make ~params:[]
    ~columns:[ "bench"; "final_rsd_pct"; "total_rsd_pct"; "runs" ]
    ~rows

let render a =
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
    (fun row ->
      Table.add_row t
        [
          A.text a "bench" row;
          Table.cell_f ~decimals:1 (A.float a "final_rsd_pct" row);
          Table.cell_f ~decimals:1 (A.float a "total_rsd_pct" row);
        ])
    a.A.rows;
  "Table 2: relative standard deviation of the total execution time and\n\
   final iteration (baseline configuration, system GC between iterations)\n\n"
  ^ Table.render t
