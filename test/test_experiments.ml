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

(* A ci-scope artifact, read by column name, and its text render. *)
let artifact id = Option.get (E.artifact ~scope:Gcperf.Scope.ci id)
let text id a = (Option.get (E.find id)).Gcperf.Experiment.text a

module A = Gcperf.Artifact

let test_table2 () =
  let a = artifact "table2" in
  Alcotest.(check int) "7 stable benchmarks" 7 (List.length a.A.rows);
  List.iter
    (fun row ->
      let final = A.float a "final_rsd_pct" row in
      Alcotest.(check bool) "rsd finite and non-negative" true
        (final >= 0.0
        && A.float a "total_rsd_pct" row >= 0.0
        && Float.is_finite final))
    a.A.rows;
  let rendered = text "table2" a in
  Alcotest.(check bool) "mentions benchmarks" true (contains rendered "xalan")

let test_table3 () =
  let a = artifact "table3" in
  Alcotest.(check int) "10 configurations" 10 (List.length a.A.rows);
  List.iter
    (fun row ->
      Alcotest.(check bool) "fulls <= pauses" true
        (A.int a "full_pauses" row <= A.int a "pauses" row);
      Alcotest.(check bool) "total >= avg" true
        (A.float a "total_pause_s" row >= A.float a "avg_pause_s" row -. 1e-9))
    a.A.rows;
  (* Smaller heaps collect more: the 1 GB row must out-pause the 64 GB
     row (the 250 MB rows may even OOM at ci scope). *)
  let pauses_of i = A.int a "pauses" (List.nth a.A.rows i) in
  Alcotest.(check bool) "small heap pauses more" true
    (pauses_of 4 >= pauses_of 0)

let test_table4 () =
  let a = artifact "table4" in
  Alcotest.(check int) "7 benchmarks x 6 GCs" 42 (List.length a.A.rows);
  let rendered = text "table4" a in
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
  let f1 = artifact "fig1" in
  let series mode =
    List.filter
      (fun row -> A.text f1 "mode" row = mode)
      (A.where f1 "row_kind" "series")
  in
  Alcotest.(check int) "6 collectors, sysgc on" 6
    (List.length (series "system-gc"));
  Alcotest.(check int) "6 collectors, sysgc off" 6
    (List.length (series "no-system-gc"));
  (* The paper's headline: with forced full GCs, G1 is the slowest and
     ParallelOld among the fastest. *)
  let total name l =
    A.float f1 "total_s" (List.find (fun row -> A.text f1 "gc" row = name) l)
  in
  let w = series "system-gc" in
  Alcotest.(check bool) "G1 slowest with system GC" true
    (total "G1GC" w > total "ParallelOldGC" w);
  Alcotest.(check bool) "figure 1 renders" true
    (contains (text "fig1" f1) "Figure 1");
  Alcotest.(check bool) "figure 2 renders" true
    (contains (text "fig2" (artifact "fig2")) "Figure 2")

let test_fig3 () =
  let a = artifact "fig3" in
  let pct mode =
    List.fold_left
      (fun acc row -> acc +. A.float a "percent_won" row)
      0.0 (A.where a "mode" mode)
  in
  Alcotest.(check bool) "percentages sum to ~100 (sysgc)" true
    (Float.abs (pct "system-gc" -. 100.0) < 1.0);
  Alcotest.(check bool) "percentages sum to ~100 (no sysgc)" true
    (Float.abs (pct "no-system-gc" -. 100.0) < 1.0);
  (* G1 must not win with forced full collections (the paper's Figure 3a
     shows no bar for it at all). *)
  let g1 =
    A.float a "percent_won"
      (List.find
         (fun row -> A.text a "collector" row = "G1GC")
         (A.where a "mode" "system-gc"))
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
