(* Tests for the DaCapo-like suite and its harness. *)

module Machine = Gcperf_machine.Machine
module Gc_config = Gcperf_gc.Gc_config
module Suite = Gcperf_dacapo.Suite
module Harness = Gcperf_dacapo.Harness
module P = Gcperf_workload.Profile
module Mutator = Gcperf_workload.Mutator

let machine = Machine.paper_server ()

let test_suite_size () =
  Alcotest.(check int) "14 benchmarks like DaCapo 2009" 14
    (List.length Suite.all)

let test_names_unique () =
  let names = Suite.names in
  Alcotest.(check int) "unique names" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_profiles_valid () =
  List.iter
    (fun b ->
      match P.validate b.Suite.profile with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
    Suite.all

let test_crashers () =
  (* "3 benchmarks crashed on every test: eclipse, tradebeans, tradesoap" *)
  let crashers =
    List.filter_map
      (fun b ->
        if b.Suite.crashes then Some b.Suite.profile.P.name else None)
      Suite.all
  in
  Alcotest.(check (list string)) "the paper's crashers"
    [ "eclipse"; "tradebeans"; "tradesoap" ]
    (List.sort compare crashers)

let test_stable_subset () =
  Alcotest.(check int) "7 stable benchmarks" 7 (List.length Suite.stable_subset);
  List.iter
    (fun b ->
      Alcotest.(check bool) "stable benchmarks do not crash" false
        b.Suite.crashes)
    Suite.stable_subset

let test_find () =
  Alcotest.(check bool) "finds xalan" true (Suite.find "xalan" <> None);
  Alcotest.(check bool) "rejects nonsense" true (Suite.find "nope" = None)

let run_small bench ~system_gc =
  let gc =
    Gc_config.default Gc_config.ParallelOld
      ~heap_bytes:(Gc_config.gb 2)
      ~young_bytes:(Gc_config.mb 512)
  in
  Harness.run ~iterations:3 machine bench ~gc ~system_gc ()

let test_harness_runs () =
  let bench = Option.get (Suite.find "pmd") in
  let r = run_small bench ~system_gc:false in
  Alcotest.(check int) "3 iterations" 3 (Array.length r.Harness.iterations);
  Alcotest.(check bool) "not crashed" false r.Harness.crashed;
  Alcotest.(check bool) "positive total" true (r.Harness.total_s > 0.0);
  Alcotest.(check (float 1e-9)) "final matches last iteration"
    r.Harness.iterations.(2).Mutator.duration_s r.Harness.final_s

let test_harness_crash () =
  let bench = Option.get (Suite.find "eclipse") in
  let r = run_small bench ~system_gc:false in
  Alcotest.(check bool) "reports crash" true r.Harness.crashed;
  Alcotest.(check int) "no iterations" 0 (Array.length r.Harness.iterations)

let test_system_gc_adds_fulls () =
  let bench = Option.get (Suite.find "pmd") in
  let fulls r =
    List.length
      (List.filter
         (fun e -> Gcperf_sim.Gc_event.is_full e.Gcperf_sim.Gc_event.kind)
         r.Harness.events)
  in
  let with_sys = run_small bench ~system_gc:true in
  let without = run_small bench ~system_gc:false in
  Alcotest.(check bool) "system GC forces full collections" true
    (fulls with_sys > fulls without);
  (* 3 iterations, a forced full between consecutive ones = at least 2. *)
  Alcotest.(check bool) "one per gap" true (fulls with_sys >= 2)

let test_harness_oom_flag () =
  (* h2 keeps ~120 MB live: a 64 MB heap must OOM, and be reported as
     such rather than crash the harness. *)
  let bench = Option.get (Suite.find "h2") in
  let gc =
    Gc_config.default Gc_config.ParallelOld
      ~heap_bytes:(Gc_config.mb 64)
      ~young_bytes:(Gc_config.mb 16)
  in
  let r = Harness.run ~iterations:2 machine bench ~gc ~system_gc:false () in
  Alcotest.(check bool) "oom reported" true r.Harness.oom

let test_best_of () =
  let bench = Option.get (Suite.find "pmd") in
  let a = run_small bench ~system_gc:false in
  let crash = run_small (Option.get (Suite.find "eclipse")) ~system_gc:false in
  (match Harness.best_of [ a; crash ] with
  | Some best ->
      Alcotest.(check string) "crashed runs excluded" a.Harness.gc_name
        best.Harness.gc_name
  | None -> Alcotest.fail "expected a best run");
  Alcotest.(check bool) "empty -> none" true (Harness.best_of [ crash ] = None)

let test_determinism () =
  let bench = Option.get (Suite.find "xalan") in
  let a = run_small bench ~system_gc:true in
  let b = run_small bench ~system_gc:true in
  Alcotest.(check (float 0.0)) "same total" a.Harness.total_s b.Harness.total_s

(* G1's mixed collections re-evacuate tenured objects and age them each
   time, past anything a young collection produces.  This run (xalan,
   1 GB heap, 100 MB young) drives some ages past the 31 the store's
   location word holds; they must saturate rather than be refused. *)
let test_g1_tenured_ages_saturate () =
  let bench = Option.get (Suite.find "xalan") in
  let mb = 1024 * 1024 in
  let gc =
    Gc_config.default Gc_config.G1 ~heap_bytes:(1024 * mb)
      ~young_bytes:(100 * mb)
  in
  let r = Harness.run ~seed:1227 machine bench ~gc ~system_gc:true () in
  Alcotest.(check int) "all iterations ran" 10
    (Array.length r.Harness.iterations)

let () =
  Alcotest.run "dacapo"
    [
      ( "suite",
        [
          Alcotest.test_case "size" `Quick test_suite_size;
          Alcotest.test_case "unique names" `Quick test_names_unique;
          Alcotest.test_case "profiles valid" `Quick test_profiles_valid;
          Alcotest.test_case "crashers" `Quick test_crashers;
          Alcotest.test_case "stable subset" `Quick test_stable_subset;
          Alcotest.test_case "find" `Quick test_find;
        ] );
      ( "harness",
        [
          Alcotest.test_case "runs" `Quick test_harness_runs;
          Alcotest.test_case "crash flag" `Quick test_harness_crash;
          Alcotest.test_case "system gc fulls" `Quick test_system_gc_adds_fulls;
          Alcotest.test_case "oom flag" `Quick test_harness_oom_flag;
          Alcotest.test_case "best_of" `Quick test_best_of;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "G1 tenured ages saturate" `Quick
            test_g1_tenured_ages_saturate;
        ] );
    ]
