(* The worker pool: ordering, edge cases, deterministic exception
   propagation, and the determinism contract end to end — parallel
   artifacts byte-identical to sequential ones, and the golden identity
   gate. *)

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

(* --- parallel-vs-sequential artifact identity ---------------------- *)

(* The determinism contract end to end, over every golden experiment:
   cell fan-out at four workers must render byte-identically to the
   sequential run.  The host GC domain count the e2e harness still
   passes (Obj_store.set_default_gc_domains, a no-op since every heap
   kernel is sequential) is set to 4 alongside, so the matrix also pins
   that it changes no artifact.  The other legs run in the
   @check-identity gate and the CI matrix. *)
let test_artifact_identity_matrix () =
  let module Store = Gcperf_heap.Obj_store in
  let render ~jobs (e : Gcperf.Experiment.t) =
    match E.artifact ~scope:Gcperf.Scope.ci ~jobs e.id with
    | Some a -> Gcperf.Artifact.render a `Json
    | None -> Alcotest.fail ("unknown artifact " ^ e.id)
  in
  let goldens = E.goldens () in
  (* The sequential references are independent experiments, each
     rendered at jobs 1; the pool only overlaps them. *)
  Store.set_default_gc_domains 1;
  let sequential =
    Pool.map_list ~jobs:(Pool.default_jobs ()) (render ~jobs:1) goldens
  in
  Fun.protect
    ~finally:(fun () -> Store.set_default_gc_domains 1)
    (fun () ->
      Store.set_default_gc_domains 4;
      List.iter2
        (fun (e : Gcperf.Experiment.t) reference ->
          Alcotest.(check string)
            (Printf.sprintf "%s byte-identical at jobs=4 gc-jobs=4" e.id)
            reference (render ~jobs:4 e))
        goldens sequential)

(* --- the identity gate itself --------------------------------------- *)

(* The test stanza's dependency lays the committed goldens out under
   the parent directory, which plays the repository root. *)
let repo_root = Filename.parent_dir_name

let in_dir dir f =
  let cwd = Sys.getcwd () in
  Sys.chdir dir;
  Fun.protect ~finally:(fun () -> Sys.chdir cwd) f

(* A golden with one flipped byte must fail and name the line; the
   untouched golden must pass. *)
let test_check_golden_detects_tampering () =
  let table2 =
    List.find (fun (e : Gcperf.Experiment.t) -> e.id = "table2")
      (E.goldens ())
  in
  let file = Filename.concat Gcperf.Experiment.golden_dir "table2.txt" in
  Alcotest.(check (result unit string)) "untouched golden passes" (Ok ())
    (in_dir repo_root (fun () -> Gcperf.Experiment.check_golden table2));
  let text =
    In_channel.with_open_bin (Filename.concat repo_root file)
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
  let result = in_dir root (fun () -> Gcperf.Experiment.check_golden table2) in
  Sys.remove (Filename.concat root file);
  Sys.rmdir dir;
  Sys.rmdir (Filename.dirname dir);
  Sys.rmdir root;
  match result with
  | Ok () -> Alcotest.fail "tampered golden passed"
  | Error msg ->
      Alcotest.(check bool) ("error names line 4: " ^ msg) true
        (String.starts_with ~prefix:(file ^ " differs at line 4\n") msg)

(* The golden list has one home: results/ci/ holds exactly one file per
   golden experiment, and nothing else. *)
let test_golden_files_match_registry () =
  let files =
    Array.to_list
      (Sys.readdir (Filename.concat repo_root Gcperf.Experiment.golden_dir))
  in
  let ids =
    List.map (fun (e : Gcperf.Experiment.t) -> e.id ^ ".txt") (E.goldens ())
  in
  Alcotest.(check (list string)) "results/ci = golden ids"
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
          Alcotest.test_case "artifact identity jobs x gc-jobs matrix" `Slow
            test_artifact_identity_matrix;
          Alcotest.test_case "telemetry merge" `Quick
            test_merge_matches_sequential;
        ] );
      ( "golden gate",
        [
          Alcotest.test_case "tampered golden fails" `Slow
            test_check_golden_detects_tampering;
          Alcotest.test_case "results/ci matches the registry" `Quick
            test_golden_files_match_registry;
        ] );
    ]
