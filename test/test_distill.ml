(* Distillation (LBO) tests.

   Three concerns: the pure [Distill.distill] arithmetic must be total
   and well-behaved for arbitrary component values (property-tested:
   non-negative, additive decomposition, zero for a zero-cost
   collector), the experiment must attribute cost to the right
   component per collector family, and — the repo-wide contract — the
   distill artifact must match its committed golden at every --jobs. *)

module Distill = Gcperf_distill.Distill
module Telemetry = Gcperf_telemetry.Telemetry

let components ?(raw = 0.0) ?(alloc = 0.0) ?(stw = 0.0) ?(steal = 0.0)
    ?(tax = 0.0) () =
  {
    Distill.raw_us = raw;
    alloc_us = alloc;
    stw_us = stw;
    steal_us = steal;
    tax_us = tax;
    phases = [];
  }

(* --- distill arithmetic (property) ---------------------------------- *)

(* Any float at all, including negatives, zeros and NaN: [distill] must
   clamp rather than propagate. *)
let component_gen =
  QCheck.Gen.(
    oneof
      [
        float_range (-1e9) 1e9;
        float_range 0.0 1e3;
        return 0.0;
        return Float.nan;
      ])

let components_arb =
  QCheck.make
    ~print:(fun (a, b, c, d, e) ->
      Printf.sprintf "raw=%g alloc=%g stw=%g steal=%g tax=%g" a b c d e)
    QCheck.Gen.(
      map
        (fun ((a, b), (c, d), e) -> (a, b, c, d, e))
        (triple
           (pair component_gen component_gen)
           (pair component_gen component_gen)
           component_gen))

let prop_total_and_additive =
  QCheck.Test.make ~name:"distilled cost is non-negative and additive"
    ~count:500 components_arb (fun (raw, alloc, stw, steal, tax) ->
      let cost =
        Distill.distill (components ~raw ~alloc ~stw ~steal ~tax ())
      in
      let finite x = not (Float.is_nan x) in
      if not (finite cost.Distill.distilled) then
        QCheck.Test.fail_report "distilled is NaN";
      if cost.Distill.distilled < 0.0 then
        QCheck.Test.fail_reportf "distilled %g < 0" cost.Distill.distilled;
      if
        cost.Distill.stw_over < 0.0
        || cost.Distill.steal_over < 0.0
        || cost.Distill.tax_over < 0.0
      then QCheck.Test.fail_report "negative component share";
      (* Additive by construction — exactly, not within epsilon. *)
      if
        cost.Distill.distilled
        <> cost.Distill.stw_over +. cost.Distill.steal_over
           +. cost.Distill.tax_over
      then QCheck.Test.fail_report "decomposition does not sum to total";
      if cost.Distill.t_real_us < cost.Distill.t_ideal_us then
        QCheck.Test.fail_report "t_real below t_ideal";
      true)

(* --- zero-cost (ideal) collector ------------------------------------ *)

let test_zero_cost_collector () =
  let cost = Distill.distill (components ~raw:1e6 ~alloc:2e5 ()) in
  Alcotest.(check (float 0.0)) "distilled is exactly 0" 0.0
    cost.Distill.distilled;
  Alcotest.(check (float 0.0)) "t_real = t_ideal" cost.Distill.t_ideal_us
    cost.Distill.t_real_us;
  Alcotest.(check (float 0.0)) "ideal keeps the allocation tax" 1.2e6
    cost.Distill.t_ideal_us

let test_empty_run () =
  (* A run that never stepped distils to zero, not NaN (0/0). *)
  let t = Telemetry.create ~enabled:true () in
  let cost = Distill.of_run t (Gcperf_sim.Gc_event.create ()) in
  Alcotest.(check (float 0.0)) "empty run: t_ideal 0" 0.0
    cost.Distill.t_ideal_us;
  Alcotest.(check (float 0.0)) "empty run: distilled 0" 0.0
    cost.Distill.distilled

let test_attribution () =
  let cost = Distill.distill (components ~raw:1e6 ~stw:5e5 ()) in
  Alcotest.(check (float 1e-9)) "stw share" 0.5 cost.Distill.stw_over;
  Alcotest.(check (float 0.0)) "no steal" 0.0 cost.Distill.steal_over;
  Alcotest.(check (float 0.0)) "no tax" 0.0 cost.Distill.tax_over;
  let cost = Distill.distill (components ~raw:1e6 ~steal:2e5 ~tax:3e5 ()) in
  Alcotest.(check (float 0.0)) "no stw" 0.0 cost.Distill.stw_over;
  Alcotest.(check (float 1e-9)) "steal share" 0.2 cost.Distill.steal_over;
  Alcotest.(check (float 1e-9)) "tax share" 0.3 cost.Distill.tax_over

(* --- experiment: cost lands on the right component ------------------ *)

let test_experiment_attribution () =
  let module A = Gcperf.Artifact in
  let a =
    Option.get
      (Gcperf.Experiments.artifact ~scope:Gcperf.Scope.ci ~jobs:1 "distill")
  in
  Alcotest.(check int) "eight collectors at one ci point" 8
    (List.length a.A.rows);
  let find gc = List.find (fun row -> A.text a "gc" row = gc) a.A.rows in
  let serial = find "SerialGC" in
  Alcotest.(check bool) "SerialGC pays in pauses" true
    (A.float a "stw_over" serial > 0.0);
  Alcotest.(check (float 0.0)) "SerialGC steals no cores" 0.0
    (A.float a "steal_over" serial);
  let jrc = find "JournalRCGC" in
  Alcotest.(check bool) "JournalRCGC pays in mutator tax" true
    (A.float a "tax_over" jrc > A.float a "stw_over" jrc);
  let ranking = Gcperf.Exp_distill.ranking a in
  Alcotest.(check int) "ranking covers all collectors" 8
    (List.length ranking);
  let sorted =
    List.for_all2
      (fun (_, a) (_, b) -> a <= b)
      ranking
      (List.tl ranking @ [ ("", infinity) ])
  in
  Alcotest.(check bool) "ranking ascends" true sorted

(* --- byte-identity across --jobs ------------------------------------- *)

(* jobs 1 and 2 here; test_exec checks jobs 4. The gc-jobs axis of the
   test's name is retired: no collector splits work across domains, so
   the matrix is its jobs column. *)
let test_golden_across_jobs () =
  let distill = Golden.find "distill" in
  List.iter (fun jobs -> ignore (Golden.check ~jobs distill)) [ 1; 2 ]

let () =
  Alcotest.run "distill"
    [
      ( "arithmetic",
        [
          QCheck_alcotest.to_alcotest prop_total_and_additive;
          Alcotest.test_case "zero-cost collector" `Quick
            test_zero_cost_collector;
          Alcotest.test_case "empty run" `Quick test_empty_run;
          Alcotest.test_case "component attribution" `Quick test_attribution;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "per-family attribution" `Quick
            test_experiment_attribution;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "jobs x gc-jobs identity matrix" `Slow
            test_golden_across_jobs;
        ] );
    ]
