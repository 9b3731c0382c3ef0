module A = Artifact

let scope_params scope = [ ("scope", Scope.to_string scope) ]

(* ------------------------------------------------------------------ *)
(* Artifact builders: one typed artifact per experiment id.  Each takes
   [make], [Artifact.make] with the id and catalogue title applied.
   Campaign experiments (Xalan feeds Figures 1 and 2, the client runs
   feed Figure 5 and Tables 5-7) take the campaign result as an
   argument; their runner below computes it once and the campaign memo
   shares the artifact list between the sibling ids. *)

let table2_artifact make ~scope ?jobs () =
  let r = Exp_table2.run_scope ~scope ?jobs () in
  make ~params:(scope_params scope)
    ~columns:[ "bench"; "final_rsd_pct"; "total_rsd_pct"; "runs" ]
    ~rows:
      (List.map
         (fun (row : Exp_table2.row) ->
           A.
             [
               Text row.Exp_table2.bench;
               Float row.final_rsd_pct;
               Float row.total_rsd_pct;
               Int row.runs;
             ])
         r.Exp_table2.rows)
    ~render_text:(fun () -> Exp_table2.render r)

let table3_artifact make ~scope ?jobs () =
  let r = Exp_table3.run_scope ~scope ?jobs () in
  make
    ~params:
      (scope_params scope
      @ [
          ("collector", r.Exp_table3.collector); ("bench", r.Exp_table3.bench);
        ])
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
    ~rows:
      (List.map
         (fun (row : Exp_table3.row) ->
           A.
             [
               Int row.Exp_table3.heap_bytes;
               Int row.young_bytes;
               Int row.pauses;
               Int row.full_pauses;
               Float row.avg_pause_s;
               Float row.total_pause_s;
               Float row.total_exec_s;
               Bool row.oom;
             ])
         r.Exp_table3.rows)
    ~render_text:(fun () -> Exp_table3.render r)

let table4_artifact make ~scope ?jobs () =
  let r = Exp_table4.run_scope ~scope ?jobs () in
  make ~params:(scope_params scope)
    ~columns:[ "bench"; "gc"; "with_tlab_s"; "without_tlab_s"; "influence" ]
    ~rows:
      (List.map
         (fun (c : Exp_table4.cell) ->
           A.
             [
               Text c.Exp_table4.bench;
               Text c.gc;
               Float c.with_tlab_s;
               Float c.without_tlab_s;
               Text (Exp_table4.influence_to_string c.influence);
             ])
         r.Exp_table4.cells)
    ~render_text:(fun () -> Exp_table4.render r)

let series_rows (r : Exp_xalan.result) =
  List.concat_map
    (fun (mode, l) ->
      List.map
        (fun (s : Exp_xalan.gc_series) ->
          let max_pause =
            Array.fold_left
              (fun a (_, d) -> Float.max a d)
              0.0 s.Exp_xalan.pause_points
          in
          A.
            [
              Text mode;
              Text s.Exp_xalan.gc;
              Int (Array.length s.Exp_xalan.pause_points);
              Float max_pause;
              Float s.Exp_xalan.total_s;
            ])
        l)
    [
      ("system-gc", r.Exp_xalan.with_system_gc);
      ("no-system-gc", r.Exp_xalan.without_system_gc);
    ]

let fig1_artifact make ~scope (r : Exp_xalan.result) =
  make ~params:(scope_params scope)
    ~columns:[ "mode"; "gc"; "pauses"; "max_pause_s"; "total_s" ]
    ~rows:(series_rows r)
    ~render_text:(fun () -> Exp_xalan.render_figure1 r)

let fig2_artifact make ~scope (r : Exp_xalan.result) =
  make ~params:(scope_params scope)
    ~columns:[ "mode"; "gc"; "iteration"; "duration_s" ]
    ~rows:
      (List.concat_map
         (fun (mode, l) ->
           List.concat_map
             (fun (s : Exp_xalan.gc_series) ->
               List.mapi
                 (fun i d ->
                   A.[ Text mode; Text s.Exp_xalan.gc; Int (i + 1); Float d ])
                 (Array.to_list s.Exp_xalan.iteration_durations))
             l)
         [
           ("system-gc", r.Exp_xalan.with_system_gc);
           ("no-system-gc", r.Exp_xalan.without_system_gc);
         ])
    ~render_text:(fun () -> Exp_xalan.render_figure2 r)

let fig3_artifact make ~scope ?jobs () =
  let r = Exp_fig3.run_scope ~scope ?jobs () in
  make
    ~params:
      (scope_params scope
      @ [ ("experiments", string_of_int r.Exp_fig3.experiments) ])
    ~columns:[ "mode"; "collector"; "percent_won" ]
    ~rows:
      (List.concat_map
         (fun (mode, ranking) ->
           List.map
             (fun (gc, pct) -> A.[ Text mode; Text gc; Float pct ])
             ranking)
         [
           ("system-gc", r.Exp_fig3.with_system_gc);
           ("no-system-gc", r.Exp_fig3.without_system_gc);
         ])
    ~render_text:(fun () -> Exp_fig3.render r)

let server_run_row ~experiment (r : Exp_server.server_run) =
  A.
    [
      Text experiment;
      Text r.Exp_server.gc;
      Text r.config_name;
      Float r.duration_s;
      Int (Array.length r.pauses);
      Float r.max_pause_s;
      Int r.full_count;
      Float r.full_max_s;
      Float r.young_max_s;
      Bool r.oom;
    ]

let server_run_columns =
  [
    "experiment";
    "gc";
    "config";
    "duration_s";
    "pauses";
    "max_pause_s";
    "full_count";
    "full_max_s";
    "young_max_s";
    "oom";
  ]

let fig4_artifact make ~scope ?jobs () =
  let r = Exp_server.figure4_scope ~scope ?jobs () in
  make ~params:(scope_params scope) ~columns:server_run_columns
    ~rows:
      [
        server_run_row ~experiment:"stress" r.Exp_server.cms;
        server_run_row ~experiment:"stress" r.Exp_server.g1;
      ]
    ~render_text:(fun () -> Exp_server.render_figure4 r)

let fig5_artifact make ~scope (r : Exp_client.result) =
  let row (e : Exp_client.gc_experiment) =
    let pts = e.Exp_client.points in
    let correlated =
      Array.fold_left
        (fun a (p : Gcperf_ycsb.Client.point) ->
          if p.Gcperf_ycsb.Client.gc_correlated then a + 1 else a)
        0 pts
    in
    let max_ms =
      Array.fold_left
        (fun a (p : Gcperf_ycsb.Client.point) ->
          Float.max a p.Gcperf_ycsb.Client.latency_ms)
        0.0 pts
    in
    A.
      [
        Text e.Exp_client.gc;
        Int (Array.length pts);
        Float max_ms;
        Int correlated;
      ]
  in
  make ~params:(scope_params scope)
    ~columns:[ "gc"; "points"; "max_latency_ms"; "gc_correlated_points" ]
    ~rows:
      [
        row r.Exp_client.parallel_old; row r.Exp_client.cms; row r.Exp_client.g1;
      ]
    ~render_text:(fun () -> Exp_client.render_figure5 r)

let table567_artifact make ~scope (r : Exp_client.result) =
  let rows_of (e : Exp_client.gc_experiment) =
    List.concat_map
      (fun (op, (rep : Gcperf_stats.Stats.latency_report)) ->
        List.map
          (fun (b : Gcperf_stats.Stats.band) ->
            A.
              [
                Text e.Exp_client.gc;
                Text op;
                Float rep.Gcperf_stats.Stats.avg_ms;
                Float rep.min_ms;
                Float rep.max_ms;
                Text b.Gcperf_stats.Stats.label;
                Float b.pct_requests;
                Float b.pct_gc;
              ])
          (rep.Gcperf_stats.Stats.around_avg :: rep.above))
      [
        ("read", e.Exp_client.read_report);
        ("update", e.Exp_client.update_report);
      ]
  in
  make ~params:(scope_params scope)
    ~columns:
      [
        "gc";
        "op";
        "avg_ms";
        "min_ms";
        "max_ms";
        "band";
        "pct_requests";
        "pct_gc";
      ]
    ~rows:
      (rows_of r.Exp_client.parallel_old
      @ rows_of r.Exp_client.cms @ rows_of r.Exp_client.g1)
    ~render_text:(fun () -> Exp_client.render_tables567 r)

let table8_artifact make ~scope ?jobs () =
  let r = Exp_table8.run_scope ~scope ?jobs () in
  make ~params:(scope_params scope)
    ~columns:
      [ "gc"; "experiment"; "throughput"; "pause"; "total_rel"; "max_pause_s" ]
    ~rows:
      (List.map
         (fun (e : Exp_table8.entry) ->
           A.
             [
               Text e.Exp_table8.gc;
               Text e.experiment;
               Text (Exp_table8.verdict_to_string e.throughput);
               Text (Exp_table8.pause_verdict_to_string e.pause);
               Float e.total_rel;
               Float e.max_pause_s;
             ])
         r.Exp_table8.entries)
    ~render_text:(fun () -> Exp_table8.render r)

let server_po_artifact make ~scope ?jobs () =
  let r = Exp_server.parallel_old_analysis_scope ~scope ?jobs () in
  make ~params:(scope_params scope) ~columns:server_run_columns
    ~rows:
      [
        server_run_row ~experiment:"1h-load" r.Exp_server.one_hour;
        server_run_row ~experiment:"2h-load" r.Exp_server.two_hours;
        server_run_row ~experiment:"stress" r.Exp_server.stress;
      ]
    ~render_text:(fun () -> Exp_server.render_parallel_old r)

let ablation_artifact make ~scope ?jobs () =
  let r = Exp_ablation.run_scope ~scope ?jobs () in
  let rows =
    List.concat_map
      (fun (row : Exp_ablation.g1_full_row) ->
        [
          A.
            [
              Text "g1-full";
              Text row.Exp_ablation.mode;
              Text "total_s";
              Float row.total_s;
            ];
          A.
            [
              Text "g1-full";
              Text row.Exp_ablation.mode;
              Text "max_full_pause_s";
              Float row.max_full_pause_s;
            ];
        ])
      r.Exp_ablation.g1_full
    @ List.map
        (fun (row : Exp_ablation.numa_row) ->
          A.
            [
              Text "numa";
              Text (Printf.sprintf "%g" row.Exp_ablation.numa_factor);
              Text "full_pause_s";
              Float row.full_pause_s;
            ])
        r.Exp_ablation.numa
    @ List.concat_map
        (fun (row : Exp_ablation.tenuring_row) ->
          let cfg = string_of_int row.Exp_ablation.threshold in
          [
            A.
              [
                Text "tenuring";
                Text cfg;
                Text "pauses";
                Float (float_of_int row.pauses);
              ];
            A.[ Text "tenuring"; Text cfg; Text "avg_pause_s"; Float row.avg_pause_s ];
            A.
              [
                Text "tenuring";
                Text cfg;
                Text "total_pause_s";
                Float row.total_pause_s;
              ];
          ])
        r.Exp_ablation.tenuring
  in
  make ~params:(scope_params scope)
    ~columns:[ "section"; "config"; "metric"; "value" ]
    ~rows
    ~render_text:(fun () -> Exp_ablation.render r)

let ergonomics_artifact make ~scope ?jobs () =
  let r = Exp_ergonomics.run_scope ~scope ?jobs () in
  let summary_row (c : Exp_ergonomics.cell) =
    let s = c.Exp_ergonomics.stats in
    A.
      [
        Text "summary";
        Text c.Exp_ergonomics.gc;
        Int c.heap_bytes;
        Text (if c.adaptive then "adaptive" else "fixed");
        Int s.Exp_ergonomics.minor_pauses;
        Int s.Exp_ergonomics.final_young_bytes;
        Float s.Exp_ergonomics.max_pause_ms;
        Float s.Exp_ergonomics.avg_minor_ms;
        Float s.Exp_ergonomics.p99_minor_ms;
        Float s.Exp_ergonomics.trailing_p99_ms;
        Float s.Exp_ergonomics.total_s;
        Int s.Exp_ergonomics.resizes;
        Bool c.within_goal;
      ]
  in
  let trajectory_rows (c : Exp_ergonomics.cell) =
    List.map
      (fun (p : Gcperf_policy.Policy.trajectory_point) ->
        A.
          [
            Text "trajectory";
            Text c.Exp_ergonomics.gc;
            Int c.heap_bytes;
            Text "adaptive";
            Int p.Gcperf_policy.Policy.at_collection;
            Int p.young_bytes_now;
            Float p.observed_pause_ms;
            Float p.avg_pause_ms;
            Float 0.0;
            Float 0.0;
            Float 0.0;
            Int 0;
            Bool false;
          ])
      c.Exp_ergonomics.stats.Exp_ergonomics.trajectory
  in
  make
    ~params:
      (scope_params scope
      @ [
          ("bench", r.Exp_ergonomics.bench);
          ("pause_goal_ms", Printf.sprintf "%g" r.Exp_ergonomics.pause_goal_ms);
        ])
    ~columns:
      [
        "row_kind";
        "gc";
        "heap_bytes";
        "mode";
        "collection";
        "young_bytes";
        "pause_ms";
        "avg_pause_ms";
        "p99_ms";
        "tail_p99_ms";
        "total_s";
        "resizes";
        "within_goal";
      ]
    ~rows:
      (List.concat_map
         (fun c -> summary_row c :: trajectory_rows c)
         r.Exp_ergonomics.cells)
    ~render_text:(fun () -> Exp_ergonomics.render r)

let faults_artifact make ~scope ?jobs () =
  let r = Exp_faults.run_scope ~scope ?jobs () in
  make ~params:(scope_params scope)
    ~columns:
      [
        "gc";
        "profile";
        "resilience";
        "requests";
        "ok";
        "failed";
        "attempts";
        "retries";
        "retry_amplification";
        "goodput_ops_s";
        "p50_ms";
        "p99_ms";
        "p999_ms";
        "max_ms";
        "timeouts";
        "sheds";
        "fast_rejects";
        "drops";
        "errors";
        "hedge_wins";
      ]
    ~rows:
      (List.map
         (fun (s : Exp_faults.session) ->
           let m = s.Exp_faults.summary in
           let module R = Gcperf_ycsb.Resilient in
           A.
             [
               Text s.Exp_faults.gc;
               Text s.profile;
               Text (if s.resilient then "on" else "off");
               Int m.R.requests;
               Int m.R.ok;
               Int m.R.failed;
               Int m.R.attempts;
               Int m.R.retries;
               Float m.R.retry_amplification;
               Float m.R.goodput_ops_s;
               Float m.R.p50_ms;
               Float m.R.p99_ms;
               Float m.R.p999_ms;
               Float m.R.max_ms;
               Int m.R.timeouts;
               Int m.R.sheds;
               Int m.R.fast_rejects;
               Int m.R.drops;
               Int m.R.errors;
               Int m.R.hedge_wins;
             ])
         (Exp_faults.sessions r))
    ~render_text:(fun () -> Exp_faults.render r)

let cluster_artifact make ~scope ?jobs () =
  let r = Exp_cluster.run_scope ~scope ?jobs () in
  let module C = Gcperf_cluster.Coordinator in
  make
    ~params:
      (scope_params scope
      @ [ ("replication", string_of_int r.Exp_cluster.replication) ])
    ~columns:
      [
        "gc";
        "ring";
        "fanout";
        "hedge";
        "node_pause_pct";
        "requests";
        "ok";
        "failed";
        "sends";
        "hedges";
        "hedge_wins";
        "hints";
        "pause_intersection_pct";
        "max_inflight";
        "goodput_ops_s";
        "p50_ms";
        "p99_ms";
        "p999_ms";
        "max_ms";
      ]
    ~rows:
      (List.map
         (fun (c : Exp_cluster.cell) ->
           let m = c.Exp_cluster.summary in
           A.
             [
               Text c.Exp_cluster.gc;
               Int c.ring_size;
               Int c.fanout;
               Bool c.hedged;
               Float c.node_pause_pct;
               Int m.C.requests;
               Int m.C.ok;
               Int m.C.failed;
               Int m.C.sends;
               Int m.C.hedges;
               Int m.C.hedge_wins;
               Int m.C.hints;
               Float m.C.pause_intersection_pct;
               Int m.C.max_inflight;
               Float m.C.goodput_ops_s;
               Float m.C.p50_ms;
               Float m.C.p99_ms;
               Float m.C.p999_ms;
               Float m.C.max_ms;
             ])
         r.Exp_cluster.cells)
    ~render_text:(fun () -> Exp_cluster.render r)

let pauseless_artifact make ~scope ?jobs () =
  let r = Exp_pauseless.run_scope ~scope ?jobs () in
  make ~params:(scope_params scope)
    ~columns:
      [
        "gc";
        "heap_gb";
        "fold_jobs";
        "duration_s";
        "pauses";
        "max_pause_s";
        "full_count";
        "goodput_ops_s";
        "p50_ms";
        "p99_ms";
        "p999_ms";
        "oom";
      ]
    ~rows:
      (List.map
         (fun (c : Exp_pauseless.cell) ->
           let s = c.Exp_pauseless.server in
           let m = c.Exp_pauseless.summary in
           let module R = Gcperf_ycsb.Resilient in
           A.
             [
               Text c.Exp_pauseless.gc;
               Int c.heap_gb;
               Int c.fold_jobs;
               Float s.Exp_server.duration_s;
               Int (Array.length s.Exp_server.pauses);
               Float s.Exp_server.max_pause_s;
               Int s.Exp_server.full_count;
               Float m.R.goodput_ops_s;
               Float m.R.p50_ms;
               Float m.R.p99_ms;
               Float m.R.p999_ms;
               Bool s.Exp_server.oom;
             ])
         r.Exp_pauseless.cells)
    ~render_text:(fun () -> Exp_pauseless.render r)

let distill_artifact make ~scope ?jobs () =
  let r = Exp_distill.run_scope ~scope ?jobs () in
  let module D = Gcperf_distill.Distill in
  make ~params:(scope_params scope)
    ~columns:
      [
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
    ~rows:
      (List.map
         (fun (c : Exp_distill.cell) ->
           let k = c.Exp_distill.cost in
           let cm = k.D.components in
           A.
             [
               Text c.Exp_distill.gc;
               Int c.heap_bytes;
               Int c.young_bytes;
               Float (k.D.t_ideal_us /. 1e6);
               Float (k.D.t_real_us /. 1e6);
               Float k.D.distilled;
               Float k.D.stw_over;
               Float k.D.steal_over;
               Float k.D.tax_over;
               Float (cm.D.stw_us /. 1e6);
               Float (cm.D.steal_us /. 1e6);
               Float (cm.D.tax_us /. 1e6);
               Float (cm.D.alloc_us /. 1e6);
               Bool c.Exp_distill.oom;
             ])
         r.Exp_distill.cells)
    ~render_text:(fun () -> Exp_distill.render r)

(* ------------------------------------------------------------------ *)
(* The catalogue: the single place an experiment id, title or artifact
   builder is written down.  Every experiment's ci-scope render is
   committed as results/ci/<id>.txt and checked by `gcperf
   check-identity`.  Each title is written once, here, and handed to its
   artifact builder as [make]. *)

let single id title build =
  let make = A.make ~name:id ~title in
  [
    Experiment.make ~id ~title (fun ~scope ?jobs () ->
        [ build make ~scope ?jobs () ]);
  ]

(* Sibling artifacts of one campaign, sharing a memo key: whichever id
   runs first fills the memo for all. *)
let campaign memo_key run members =
  let runner ~scope ?jobs () =
    let r = run ~scope ?jobs () in
    List.map
      (fun (id, title, build) -> build (A.make ~name:id ~title) ~scope r)
      members
  in
  List.map
    (fun (id, title, _) -> Experiment.make ~id ~title ~memo_key runner)
    members

let all =
  List.concat
    [
      single "table2" "Table 2: benchmark stability" table2_artifact;
      single "table3" "Table 3: pause statistics across heap/young sizes"
        table3_artifact;
      single "table4" "Table 4: TLAB influence" table4_artifact;
      campaign "xalan"
        (fun ~scope ?jobs () -> Exp_xalan.run_scope ~scope ?jobs ())
        [
          ("fig1", "Figure 1: Xalan GC pauses", fig1_artifact);
          ("fig2", "Figure 2: Xalan iteration durations", fig2_artifact);
        ];
      single "fig3" "Figure 3: GC ranking by experiments won" fig3_artifact;
      single "fig4" "Figure 4: CMS and G1 server pauses" fig4_artifact;
      campaign "client" Exp_client.run_scope
        [
          ("fig5", "Figure 5: client latencies under server GC", fig5_artifact);
          ("table567", "Tables 5-7: client latency bands", table567_artifact);
        ];
      single "table8" "Table 8: collector summary" table8_artifact;
      single "server-po" "ParallelOld server analysis" server_po_artifact;
      single "ablation" "Ablation studies" ablation_artifact;
      single "ergonomics"
        "Ergonomics: fixed vs adaptive sizing with convergence trajectory"
        ergonomics_artifact;
      single "faults"
        "Fault injection: resilience under GC pauses and network faults"
        faults_artifact;
      single "cluster" "Cluster ring: tail at scale" cluster_artifact;
      single "pauseless"
        "Pauseless family: concurrent regions and journaled RC"
        pauseless_artifact;
      single "distill"
        "Distilled collector cost (LBO) over an ideal-GC baseline"
        distill_artifact;
    ]

let all_names = List.map (fun (e : Experiment.t) -> e.id) all

let artifact ~scope ?jobs id =
  match List.find_opt (fun (e : Experiment.t) -> e.id = id) all with
  | None -> None
  | Some e -> Experiment.artifact ~scope ?jobs e
