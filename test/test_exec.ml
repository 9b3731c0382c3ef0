(* The worker pool: ordering, edge cases, deterministic exception
   propagation, and the determinism contract end to end — every
   experiment rendered over four pool workers is byte-identical to its
   committed golden — plus the identity gate itself. *)

module Pool = Gcperf_exec.Pool
module E = Gcperf.Experiments
module Sink = Gcperf_telemetry.Sink
module Gc_event = Gcperf_sim.Gc_event

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

(* The JSON text between [open_] and the next [close] after it. *)
let between s open_ close =
  let rec find sub i =
    if String.sub s i (String.length sub) = sub then i else find sub (i + 1)
  in
  let start = find open_ 0 + String.length open_ in
  String.sub s start (find close start - start)

(* The determinism contract end to end: every experiment, its cells
   fanned out over four pool workers, renders byte-identically to the
   committed golden (rendered at --jobs 1).  The other legs run in the
   @check-identity gate and CI.  The same artifacts also export: the CSV
   has the header and one line per row, the JSON the artifact's
   columns. *)
let test_every_experiment_at_jobs_4 () =
  List.iter
    (fun (e : Gcperf.Experiment.t) ->
      let a = Golden.check ~jobs:4 e in
      let csv = Gcperf.Artifact.render a `Csv in
      Alcotest.(check int)
        (e.id ^ " csv: header + one line per row")
        (1 + List.length a.rows)
        (List.length (String.split_on_char '\n' csv) - 1);
      Alcotest.(check string)
        (e.id ^ " json columns")
        (String.concat "," (List.map (Printf.sprintf "%S") a.columns))
        (between (Gcperf.Artifact.render a `Json) "\"columns\":[" "],"))
    E.all

(* The campaign memo is domain-safe: fig5 and table567 share one run.
   Two pool workers ask for both siblings at once; the one that loses
   the race waits for the other's run, so both get the very same
   artifact list (a second campaign run would build a fresh one), and
   both then match their goldens.  The campaign itself fans out over
   four workers (nested pools are fresh domains), so the client
   campaign is rendered at --jobs 4 whichever golden test fills the memo
   first.  The working directory is process-global, so it is changed
   once around the map, never inside a worker. *)
let test_campaign_siblings_from_pool () =
  let siblings = [ Golden.find "fig5"; Golden.find "table567" ] in
  let results =
    Golden.in_dir Golden.repo_root (fun () ->
        Pool.map_list ~jobs:2
          (fun e ->
            let arts =
              Gcperf.Experiment.run e ~scope:Gcperf.Scope.ci ~jobs:4 ()
            in
            ( arts,
              Gcperf.Experiment.check_golden e
                (Gcperf.Experiment.artifact ~scope:Gcperf.Scope.ci ~jobs:4 e)
            ))
          siblings)
  in
  (match results with
  | [ (a, _); (b, _) ] ->
      Alcotest.(check bool) "one campaign run shared by both siblings" true
        (a == b)
  | _ -> Alcotest.fail "expected two results");
  List.iter2
    (fun (e : Gcperf.Experiment.t) (_, r) ->
      Alcotest.(check (result unit string))
        (e.id ^ " matches its golden from a pool worker")
        (Ok ()) r)
    siblings results

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
  let artifact = Gcperf.Experiment.artifact ~scope:Gcperf.Scope.ci table2 in
  let result =
    Golden.in_dir root (fun () ->
        Gcperf.Experiment.check_golden table2 artifact)
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
   catalogued experiment, and nothing else. *)
let test_golden_files_match_registry () =
  let files =
    Array.to_list
      (Sys.readdir
         (Filename.concat Golden.repo_root Gcperf.Experiment.golden_dir))
  in
  let ids =
    List.map (fun (e : Gcperf.Experiment.t) -> e.id ^ ".txt") E.all
  in
  Alcotest.(check (list string)) "results/ci = experiment ids"
    (List.sort compare ids) (List.sort compare files)

(* --- deterministic telemetry merge --------------------------------- *)

(* One pause: safepoint then copy, the copy split into plan/move. *)
let log_pause log ~kind ~duration_us =
  Gc_event.phase log Gc_event.Safepoint 100.0;
  Gc_event.phase log Gc_event.Copy (duration_us -. 100.0);
  Gc_event.sub log Gc_event.Plan 10.0;
  Gc_event.sub log Gc_event.Move (duration_us -. 110.0);
  ignore
    (Gc_event.record log ~start_us:0.0 ~kind ~collector:"G1GC" ~reason:"test"
       ~young_before:64 ~young_after:4 ~old_before:16 ~old_after:17
       ~promoted:1)

let pause_lines jsonl =
  List.filter
    (fun l -> String.length l > 16 && String.sub l 0 16 = "{\"type\":\"pause\"")
    (String.split_on_char '\n' jsonl)

(* A parallel trace renders each run's log and merges the per-run
   histograms in cell order; that must equal one log holding every
   pause in the same order. *)
let test_merge_matches_sequential () =
  let pauses =
    Gc_event.
      [ (Young, 1000.0); (Young, 2000.0); (Full, 9000.0); (Young, 3000.0) ]
  in
  let whole = Gc_event.create () in
  List.iter (fun (kind, d) -> log_pause whole ~kind ~duration_us:d) pauses;
  let w0 = Gc_event.create () and w1 = Gc_event.create () in
  List.iteri
    (fun i (kind, d) ->
      log_pause (if i < 2 then w0 else w1) ~kind ~duration_us:d)
    pauses;
  let merged = Sink.merged [ Sink.summarise w0; Sink.summarise w1 ] in
  Alcotest.(check string) "merged summary = sequential summary"
    (Sink.summary_json (Sink.summarise whole))
    (Sink.summary_json merged);
  Alcotest.(check (list string)) "merged trace = sequential trace"
    (pause_lines (Sink.trace_jsonl whole))
    (pause_lines (Sink.trace_jsonl w0) @ pause_lines (Sink.trace_jsonl w1))

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
          Alcotest.test_case "campaign siblings from pool workers" `Slow
            test_campaign_siblings_from_pool;
          Alcotest.test_case "every experiment at jobs 4" `Slow
            test_every_experiment_at_jobs_4;
          Alcotest.test_case "tampered golden fails" `Slow
            test_check_golden_detects_tampering;
          Alcotest.test_case "results/ci matches the registry" `Quick
            test_golden_files_match_registry;
        ] );
    ]
