(* End-to-end experiment tests: the campaign runners produce
   well-formed results at ci scope, and the headline qualitative results
   of the paper hold on the measured data.  That every experiment
   renders, byte for byte, is test_exec's golden loop. *)

module E = Gcperf.Experiments

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_registry () =
  Alcotest.(check int) "17 experiments" 17 (List.length E.all_names);
  Alcotest.(check bool) "unknown rejected" true
    (E.artifact ~scope:Gcperf.Scope.ci "nope" = None)

let test_table2 () =
  let r = Gcperf.Exp_table2.run_scope ~scope:Gcperf.Scope.ci () in
  Alcotest.(check int) "7 stable benchmarks" 7
    (List.length r.Gcperf.Exp_table2.rows);
  List.iter
    (fun row ->
      Alcotest.(check bool) "rsd finite and non-negative" true
        (row.Gcperf.Exp_table2.final_rsd_pct >= 0.0
        && row.Gcperf.Exp_table2.total_rsd_pct >= 0.0
        && Float.is_finite row.Gcperf.Exp_table2.final_rsd_pct))
    r.Gcperf.Exp_table2.rows;
  let rendered = Gcperf.Exp_table2.render r in
  Alcotest.(check bool) "mentions benchmarks" true (contains rendered "xalan")

let test_table3 () =
  let r = Gcperf.Exp_table3.run_scope ~scope:Gcperf.Scope.ci () in
  Alcotest.(check int) "10 configurations" 10
    (List.length r.Gcperf.Exp_table3.rows);
  List.iter
    (fun row ->
      let open Gcperf.Exp_table3 in
      Alcotest.(check bool) "fulls <= pauses" true
        (row.full_pauses <= row.pauses);
      Alcotest.(check bool) "total >= avg" true
        (row.total_pause_s >= row.avg_pause_s -. 1e-9))
    r.Gcperf.Exp_table3.rows;
  (* Smaller heaps collect more: the 1 GB row must out-pause the 64 GB
     row (the 250 MB rows may even OOM at ci scope). *)
  let pauses_of i = (List.nth r.Gcperf.Exp_table3.rows i).Gcperf.Exp_table3.pauses in
  Alcotest.(check bool) "small heap pauses more" true
    (pauses_of 4 >= pauses_of 0)

let test_table4 () =
  let r = Gcperf.Exp_table4.run_scope ~scope:Gcperf.Scope.ci () in
  Alcotest.(check int) "7 benchmarks x 6 GCs" 42
    (List.length r.Gcperf.Exp_table4.cells);
  let rendered = Gcperf.Exp_table4.render r in
  Alcotest.(check bool) "symbols present" true (contains rendered "=")

let test_table4_classify () =
  let open Gcperf.Exp_table4 in
  Alcotest.(check string) "faster without = hurts" "-"
    (influence_to_string
       (classify ~deviation:0.05 ~with_tlab:110.0 ~without_tlab:100.0));
  Alcotest.(check string) "slower without = helps" "+"
    (influence_to_string
       (classify ~deviation:0.05 ~with_tlab:100.0 ~without_tlab:110.0));
  Alcotest.(check string) "within band = indifferent" "="
    (influence_to_string
       (classify ~deviation:0.05 ~with_tlab:100.0 ~without_tlab:102.0))

let test_figures_1_2 () =
  let r = Gcperf.Exp_xalan.run_scope ~scope:Gcperf.Scope.ci () in
  Alcotest.(check int) "6 collectors, sysgc on" 6
    (List.length r.Gcperf.Exp_xalan.with_system_gc);
  Alcotest.(check int) "6 collectors, sysgc off" 6
    (List.length r.Gcperf.Exp_xalan.without_system_gc);
  (* The paper's headline: with forced full GCs, G1 is the slowest and
     ParallelOld among the fastest. *)
  let total name l =
    (List.find (fun s -> s.Gcperf.Exp_xalan.gc = name) l)
      .Gcperf.Exp_xalan.total_s
  in
  let w = r.Gcperf.Exp_xalan.with_system_gc in
  Alcotest.(check bool) "G1 slowest with system GC" true
    (total "G1GC" w > total "ParallelOldGC" w);
  let f1 = Gcperf.Exp_xalan.render_figure1 r in
  let f2 = Gcperf.Exp_xalan.render_figure2 r in
  Alcotest.(check bool) "figure 1 renders" true (contains f1 "Figure 1");
  Alcotest.(check bool) "figure 2 renders" true (contains f2 "Figure 2")

let test_fig3 () =
  let r = Gcperf.Exp_fig3.run_scope ~scope:Gcperf.Scope.ci () in
  let pct l = List.fold_left (fun a (_, v) -> a +. v) 0.0 l in
  Alcotest.(check bool) "percentages sum to ~100 (sysgc)" true
    (Float.abs (pct r.Gcperf.Exp_fig3.with_system_gc -. 100.0) < 1.0);
  Alcotest.(check bool) "percentages sum to ~100 (no sysgc)" true
    (Float.abs (pct r.Gcperf.Exp_fig3.without_system_gc -. 100.0) < 1.0);
  (* G1 must not win with forced full collections (the paper's Figure 3a
     shows no bar for it at all). *)
  let g1 =
    List.assoc "G1GC" r.Gcperf.Exp_fig3.with_system_gc
  in
  Alcotest.(check bool) "G1 wins nothing with system GC" true (g1 <= 1.0)

let test_table8_classifiers () =
  let open Gcperf.Exp_table8 in
  Alcotest.(check string) "best is good" "good"
    (verdict_to_string (classify_throughput 1.0));
  Alcotest.(check string) "15%+ slower is bad" "bad"
    (verdict_to_string (classify_throughput 1.5));
  Alcotest.(check string) "seconds on a server are significant" "significant"
    (pause_verdict_to_string (classify_pause ~max_pause_s:3.0 ~server:true));
  Alcotest.(check string) "minutes are unacceptable" "unacceptable"
    (pause_verdict_to_string (classify_pause ~max_pause_s:200.0 ~server:true));
  Alcotest.(check string) "sub-second benchmark pauses are short" "short"
    (pause_verdict_to_string (classify_pause ~max_pause_s:0.3 ~server:false));
  Alcotest.(check string) "forced fulls near a second are tolerable"
    "acceptable"
    (pause_verdict_to_string (classify_pause ~max_pause_s:1.2 ~server:false));
  Alcotest.(check string) "longer forced fulls are not" "unacceptable"
    (pause_verdict_to_string (classify_pause ~max_pause_s:1.7 ~server:false))

let test_server_ci () =
  (* One scaled-down stressed server run per concurrent collector: pauses
     must stay bounded (no full GC) — the Figure 4 contrast. *)
  let cms =
    Gcperf.Exp_server.run_server_scope ~scope:Gcperf.Scope.ci
      ~kind:Gcperf_gc.Gc_config.Cms ~stress:true ~hours:1.0 ()
  in
  Alcotest.(check bool) "CMS run produced pauses" true
    (Array.length cms.Gcperf.Exp_server.pauses > 0);
  Alcotest.(check int) "CMS avoided full collections" 0
    cms.Gcperf.Exp_server.full_count;
  Alcotest.(check bool) "pause timeline chronological" true
    (let ok = ref true in
     Array.iteri
       (fun i (s, _) ->
         if i > 0 && s < fst cms.Gcperf.Exp_server.pauses.(i - 1) then
           ok := false)
       cms.Gcperf.Exp_server.pauses;
     !ok)

let () =
  Alcotest.run "experiments"
    [
      ("registry", [ Alcotest.test_case "registry" `Quick test_registry ]);
      ( "benchmark campaigns",
        [
          Alcotest.test_case "table 2" `Slow test_table2;
          Alcotest.test_case "table 3" `Slow test_table3;
          Alcotest.test_case "table 4" `Slow test_table4;
          Alcotest.test_case "table 4 classifier" `Quick test_table4_classify;
          Alcotest.test_case "figures 1-2" `Slow test_figures_1_2;
          Alcotest.test_case "figure 3" `Slow test_fig3;
          Alcotest.test_case "table 8 classifiers" `Quick test_table8_classifiers;
        ] );
      ( "server campaigns",
        [ Alcotest.test_case "stressed server (ci scope)" `Slow test_server_ci ] );
    ]
