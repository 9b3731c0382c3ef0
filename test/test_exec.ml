(* The worker pool: ordering, edge cases, deterministic exception
   propagation, and the determinism contract end to end — every
   experiment rendered over four pool workers is byte-identical to its
   committed golden — plus the identity gate itself. *)

module Pool = Gcperf_exec.Pool
module E = Gcperf.Experiments
module Telemetry = Gcperf_telemetry.Telemetry
module Sink = Gcperf_telemetry.Sink
module Span = Gcperf_telemetry.Span

(* --- map_cells semantics ------------------------------------------- *)

let test_ordering_qcheck =
  QCheck.Test.make ~count:200
    ~name:"map_cells = Array.map for every jobs count"
    QCheck.(pair (list small_int) (int_range 0 8))
    (fun (l, jobs) ->
      let cells = Array.of_list l in
      let f x = (2 * x) + 1 in
      Pool.map_cells ~jobs f cells = Array.map f cells)

let test_edge_cases () =
  Alcotest.(check (array int)) "empty input" [||]
    (Pool.map_cells ~jobs:4 (fun x -> x) [||]);
  Alcotest.(check (array int)) "jobs > cells" [| 0; 2; 4 |]
    (Pool.map_cells ~jobs:64 (fun x -> 2 * x) [| 0; 1; 2 |]);
  Alcotest.(check (array int)) "jobs = 0 falls back to default" [| 1; 2 |]
    (Pool.map_cells ~jobs:0 (fun x -> x + 1) [| 0; 1 |]);
  Alcotest.(check (list int)) "map_list mirrors map_cells" [ 10; 20; 30 ]
    (Pool.map_list ~jobs:2 (fun x -> 10 * x) [ 1; 2; 3 ])

let test_default_jobs () =
  Alcotest.(check bool) "default jobs is positive" true
    (Pool.default_jobs () >= 1)

(* Whatever the schedule, the raised exception is the one the sequential
   run would raise: the lowest failing cell's. *)
let test_exception_lowest_index () =
  let f i = if i mod 5 = 2 then failwith (string_of_int i) else i in
  List.iter
    (fun jobs ->
      for _ = 1 to 20 do
        match Pool.map_cells ~jobs f (Array.init 24 (fun i -> i)) with
        | _ -> Alcotest.fail "expected an exception"
        | exception Failure msg ->
            Alcotest.(check string)
              (Printf.sprintf "lowest failing cell wins (jobs=%d)" jobs)
              "2" msg
      done)
    [ 1; 2; 4; 8 ]

(* --- the identity gate ------------------------------------------------ *)

(* The determinism contract end to end: every experiment, its cells
   fanned out over four pool workers, renders byte-identically to the
   committed golden (rendered at --jobs 1).  The loop is sequential, so
   the registry memo (fig5 and table567 share one campaign) is only
   touched from this domain.  The other legs run in the @check-identity
   gate and CI. *)
let test_every_experiment_at_jobs_4 () =
  List.iter (Golden.check ~jobs:4) (E.all ())

(* A golden with one flipped byte must fail and name the line (the
   untouched golden passes in the loop above). *)
let test_check_golden_detects_tampering () =
  let table2 = Golden.find "table2" in
  let file = Filename.concat Gcperf.Experiment.golden_dir "table2.txt" in
  let text =
    In_channel.with_open_bin (Filename.concat Golden.repo_root file)
      In_channel.input_all
  in
  (* First byte of line 4 (the column header). *)
  let nl i = String.index_from text i '\n' + 1 in
  let at = nl (nl (nl 0)) in
  let tampered = Bytes.of_string text in
  Bytes.set tampered at (if text.[at] = 'x' then 'y' else 'x');
  let root = Filename.temp_dir "gcperf-golden" "" in
  let dir = Filename.concat root Gcperf.Experiment.golden_dir in
  Sys.mkdir (Filename.dirname dir) 0o755;
  Sys.mkdir dir 0o755;
  Out_channel.with_open_bin (Filename.concat root file) (fun oc ->
      Out_channel.output_bytes oc tampered);
  let result =
    Golden.in_dir root (fun () -> Gcperf.Experiment.check_golden table2)
  in
  Sys.remove (Filename.concat root file);
  Sys.rmdir dir;
  Sys.rmdir (Filename.dirname dir);
  Sys.rmdir root;
  match result with
  | Ok () -> Alcotest.fail "tampered golden passed"
  | Error msg ->
      Alcotest.(check bool) ("error names line 4: " ^ msg) true
        (String.starts_with ~prefix:(file ^ " differs at line 4\n") msg)

(* Every experiment is a golden: results/ci/ holds exactly one file per
   registered experiment, and nothing else. *)
let test_golden_files_match_registry () =
  let files =
    Array.to_list
      (Sys.readdir
         (Filename.concat Golden.repo_root Gcperf.Experiment.golden_dir))
  in
  let ids =
    List.map (fun (e : Gcperf.Experiment.t) -> e.id ^ ".txt") (E.all ())
  in
  Alcotest.(check (list string)) "results/ci = experiment ids"
    (List.sort compare ids) (List.sort compare files)

(* --- deterministic telemetry merge --------------------------------- *)

let span ~kind ~duration_us =
  {
    Span.collector = "G1GC";
    kind;
    cause = "test";
    start_us = 0.0;
    duration_us;
    phases = [ (Span.Safepoint, 100.0); (Span.Copy, duration_us -. 100.0) ];
    sub = [];
    young_before = 64;
    young_after = 4;
    old_before = 16;
    old_after = 17;
    promoted = 1;
  }

let test_merge_matches_sequential () =
  let spans =
    [
      span ~kind:"young" ~duration_us:1000.0;
      span ~kind:"young" ~duration_us:2000.0;
      span ~kind:"full" ~duration_us:9000.0;
      span ~kind:"young" ~duration_us:3000.0;
    ]
  in
  (* Sequential reference: every span into one registry, in order. *)
  let whole = Telemetry.create ~enabled:true () in
  List.iter (Telemetry.record_span whole) spans;
  (* Two per-worker sinks, merged back in cell order. *)
  let w0 = Telemetry.create ~enabled:true () in
  let w1 = Telemetry.create ~enabled:true () in
  List.iteri
    (fun i s -> Telemetry.record_span (if i < 2 then w0 else w1) s)
    spans;
  let merged = Telemetry.create ~enabled:true () in
  Telemetry.merge_into ~into:merged w0;
  Telemetry.merge_into ~into:merged w1;
  Alcotest.(check string) "merged summary = sequential summary"
    (Sink.summary_json whole) (Sink.summary_json merged);
  Alcotest.(check string) "merged trace = sequential trace"
    (Sink.trace_jsonl whole) (Sink.trace_jsonl merged)

let () =
  Alcotest.run "exec"
    [
      ( "pool",
        [
          QCheck_alcotest.to_alcotest test_ordering_qcheck;
          Alcotest.test_case "edge cases" `Quick test_edge_cases;
          Alcotest.test_case "default jobs" `Quick test_default_jobs;
          Alcotest.test_case "exception propagation" `Quick
            test_exception_lowest_index;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "telemetry merge" `Quick
            test_merge_matches_sequential;
        ] );
      ( "golden gate",
        [
          Alcotest.test_case "every experiment at jobs 4" `Slow
            test_every_experiment_at_jobs_4;
          Alcotest.test_case "tampered golden fails" `Slow
            test_check_golden_detects_tampering;
          Alcotest.test_case "results/ci matches the registry" `Quick
            test_golden_files_match_registry;
        ] );
    ]
