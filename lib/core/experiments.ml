(* The catalogue: the single place an experiment id, title, runner and
   text renderer are written down.  Every experiment's ci-scope render
   is committed as results/ci/<id>.txt and checked by `gcperf
   check-identity`.  Each title is written once, here, and handed to the
   runner inside [make], with the run's scope stamped as the first
   param. *)

type run = Artifact.make -> scope:Scope.t -> ?jobs:int -> unit -> Artifact.t

let stamp ~id ~title scope ~params =
  Artifact.make ~name:id ~title
    ~params:(("scope", Scope.to_string scope) :: params)

let single id title (run : run) text =
  [
    Experiment.make ~id ~title ~text (fun ~scope ?jobs () ->
        [ run (stamp ~id ~title scope) ~scope ?jobs () ]);
  ]

(* Sibling artifacts of one campaign, sharing a memo key: whichever id
   runs first fills the memo for all.  [run] gets each member's [make]
   by id and returns every member's artifact. *)
let campaign memo_key
    (run :
      (string -> Artifact.make) ->
      scope:Scope.t ->
      ?jobs:int ->
      unit ->
      Artifact.t list) members =
  let runner ~scope ?jobs () =
    let make id =
      let _, title, _ = List.find (fun (m, _, _) -> m = id) members in
      stamp ~id ~title scope
    in
    run make ~scope ?jobs ()
  in
  List.map
    (fun (id, title, text) -> Experiment.make ~id ~title ~memo_key ~text runner)
    members

let all =
  List.concat
    [
      single "table2" "Table 2: benchmark stability" Exp_table2.run_scope
        Exp_table2.render;
      single "table3" "Table 3: pause statistics across heap/young sizes"
        Exp_table3.run_scope Exp_table3.render;
      single "table4" "Table 4: TLAB influence" Exp_table4.run_scope
        Exp_table4.render;
      campaign "xalan"
        (fun make ->
          Exp_xalan.run_scope ~fig1:(make "fig1") ~fig2:(make "fig2"))
        [
          ("fig1", "Figure 1: Xalan GC pauses", Exp_xalan.render_figure1);
          ( "fig2",
            "Figure 2: Xalan iteration durations",
            Exp_xalan.render_figure2 );
        ];
      single "fig3" "Figure 3: GC ranking by experiments won" Exp_fig3.run_scope
        Exp_fig3.render;
      single "fig4" "Figure 4: CMS and G1 server pauses" Exp_server.figure4
        Exp_server.render_figure4;
      campaign "client"
        (fun make ->
          Exp_client.run_scope ~fig5:(make "fig5") ~table567:(make "table567"))
        [
          ( "fig5",
            "Figure 5: client latencies under server GC",
            Exp_client.render_figure5 );
          ( "table567",
            "Tables 5-7: client latency bands",
            Exp_client.render_tables567 );
        ];
      single "table8" "Table 8: collector summary" Exp_table8.run_scope
        Exp_table8.render;
      single "server-po" "ParallelOld server analysis" Exp_server.parallel_old
        Exp_server.render_parallel_old;
      single "ablation" "Ablation studies" Exp_ablation.run_scope
        Exp_ablation.render;
      single "ergonomics"
        "Ergonomics: fixed vs adaptive sizing with convergence trajectory"
        Exp_ergonomics.run_scope Exp_ergonomics.render;
      single "faults"
        "Fault injection: resilience under GC pauses and network faults"
        (fun make ~scope ?jobs () ->
          Exp_faults.to_artifact make (Exp_faults.run_scope ~scope ?jobs ()))
        Exp_faults.render;
      single "cluster" "Cluster ring: tail at scale"
        (fun make ~scope ?jobs () ->
          Exp_cluster.to_artifact make (Exp_cluster.run_scope ~scope ?jobs ()))
        Exp_cluster.render;
      single "pauseless"
        "Pauseless family: concurrent regions and journaled RC"
        Exp_pauseless.run_scope Exp_pauseless.render;
      single "distill"
        "Distilled collector cost (LBO) over an ideal-GC baseline"
        Exp_distill.run_scope Exp_distill.render;
    ]

let all_names = List.map (fun (e : Experiment.t) -> e.id) all

let find id = List.find_opt (fun (e : Experiment.t) -> e.id = id) all

let artifact ~scope ?jobs id =
  Option.map (Experiment.artifact ~scope ?jobs) (find id)
