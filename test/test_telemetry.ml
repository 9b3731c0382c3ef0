(* Telemetry subsystem tests.

   Three concerns: the log-bucketed histogram must agree with naive
   sort-based nearest-rank quantiles to within its bucket resolution
   (property-tested), the collectors must emit well-formed per-phase
   spans through the registry, and — the load-bearing invariant —
   enabling telemetry must not perturb the simulation: with the
   registry on by default, ci-scope artifacts still match the goldens
   that test_exec checks with it off. *)

module Histogram = Gcperf_telemetry.Histogram
module Span = Gcperf_telemetry.Span
module Telemetry = Gcperf_telemetry.Telemetry
module Metrics = Gcperf_telemetry.Metrics
module Sink = Gcperf_telemetry.Sink
module Harness = Gcperf_dacapo.Harness
module Suite = Gcperf_dacapo.Suite
module Machine = Gcperf_machine.Machine
module Gc_config = Gcperf_gc.Gc_config

let mb = 1024 * 1024

(* --- histogram vs naive quantiles ----------------------------------- *)

(* Nearest-rank quantile on the raw samples: rank ceil(p/100 * n),
   1-based, clamped to [1, n]. *)
let naive_percentile samples p =
  let sorted = List.sort compare samples in
  let n = List.length sorted in
  let rank =
    Stdlib.max 1
      (Stdlib.min n (int_of_float (ceil (p /. 100.0 *. float_of_int n))))
  in
  List.nth sorted (rank - 1)

(* The histogram quantises to 1/1000 units and resolves a quantile to
   its bucket midpoint: relative error is bounded by the bucket width
   (1/128 above the linear region) plus the quantisation step. *)
let close_enough ~naive ~hist =
  Float.abs (hist -. naive) <= (0.015 *. Float.abs naive) +. 0.01

let pos_float_gen =
  (* Mix magnitudes: sub-linear-region values (< 0.256) up to 1e6, the
     realistic span of microsecond pause durations. *)
  QCheck.Gen.(
    oneof
      [
        float_bound_exclusive 0.3;
        float_bound_exclusive 100.0;
        float_bound_exclusive 1.0e6;
      ])

let samples_arb =
  QCheck.make
    ~print:QCheck.Print.(list float)
    QCheck.Gen.(list_size (int_range 5 300) pos_float_gen)

let prop_percentiles_match =
  QCheck.Test.make ~name:"histogram percentiles track naive quantiles"
    ~count:1000 samples_arb (fun samples ->
      let h = Histogram.create () in
      List.iter (Histogram.record h) samples;
      List.iter
        (fun p ->
          let naive = naive_percentile samples p in
          let hist = Histogram.percentile h p in
          if not (close_enough ~naive ~hist) then
            QCheck.Test.fail_reportf "p%.1f: naive %.6f vs histogram %.6f" p
              naive hist)
        [ 0.0; 50.0; 90.0; 99.0; 99.9 ];
      (* Exact tails and moments. *)
      let n = List.length samples in
      let mn = List.fold_left Float.min (List.hd samples) samples in
      let mx = List.fold_left Float.max (List.hd samples) samples in
      Histogram.count h = n
      && Histogram.percentile h 100.0 = mx
      && Histogram.min h = mn
      && Histogram.max h = mx)

let prop_merge =
  QCheck.Test.make ~name:"merged histograms equal one-shot recording"
    ~count:1000
    (QCheck.pair samples_arb samples_arb)
    (fun (xs, ys) ->
      let one = Histogram.create () in
      List.iter (Histogram.record one) (xs @ ys);
      let a = Histogram.create () and b = Histogram.create () in
      List.iter (Histogram.record a) xs;
      List.iter (Histogram.record b) ys;
      Histogram.merge_into ~into:a b;
      let same p =
        Float.abs (Histogram.percentile a p -. Histogram.percentile one p)
        <= 1e-9
      in
      Histogram.count a = Histogram.count one
      && Histogram.min a = Histogram.min one
      && Histogram.max a = Histogram.max one
      && Float.abs (Histogram.sum a -. Histogram.sum one)
         <= 1e-6 *. (1.0 +. Float.abs (Histogram.sum one))
      && List.for_all same [ 50.0; 90.0; 99.0; 99.9; 100.0 ])

let test_histogram_empty () =
  let h = Histogram.create () in
  Alcotest.(check bool) "empty" true (Histogram.is_empty h);
  Alcotest.(check (float 0.0)) "p99 of empty" 0.0 (Histogram.percentile h 99.0);
  Histogram.record h 42.0;
  Alcotest.(check (float 1e-9)) "single sample p50" 42.0
    (Histogram.percentile h 50.0);
  Alcotest.(check (float 1e-9)) "single sample max" 42.0 (Histogram.max h);
  Histogram.clear h;
  Alcotest.(check bool) "cleared" true (Histogram.is_empty h)

(* --- spans from a real collector run -------------------------------- *)

let traced_run kind =
  let telemetry = Telemetry.create ~enabled:true () in
  let bench = Option.get (Suite.find "xalan") in
  let gc =
    Gc_config.default kind ~heap_bytes:(2048 * mb) ~young_bytes:(512 * mb)
  in
  let r =
    Harness.run ~telemetry ~iterations:3 (Machine.paper_server ()) bench ~gc
      ~system_gc:false ()
  in
  (telemetry, r)

let test_g1_spans () =
  let telemetry, r = traced_run Gc_config.G1 in
  let spans = Telemetry.spans telemetry in
  Alcotest.(check bool) "spans recorded" true (List.length spans > 0);
  Alcotest.(check int) "one span per GC event"
    (List.length r.Harness.events)
    (List.length spans);
  List.iter
    (fun (s : Span.t) ->
      Alcotest.(check string) "collector tag" "G1GC" s.Span.collector;
      Alcotest.(check bool) "has phases" true (s.Span.phases <> []);
      (* The recorded duration is exactly the fold of its phases (the
         collectors compute it that way, in this order). *)
      let sum =
        List.fold_left (fun acc (_, us) -> acc +. us) 0.0 s.Span.phases
      in
      Alcotest.(check (float 1e-9)) "duration = sum of phases" sum
        s.Span.duration_us;
      Alcotest.(check bool) "leads with safepoint" true
        (match s.Span.phases with
        | (Span.Safepoint, _) :: _ -> true
        | _ -> false))
    spans;
  let young =
    List.filter (fun (s : Span.t) -> s.Span.kind = "young") spans
  in
  Alcotest.(check bool) "young pauses traced" true (List.length young > 0);
  List.iter
    (fun (s : Span.t) ->
      Alcotest.(check bool) "young span has a copy phase" true
        (List.mem_assoc Span.Copy s.Span.phases))
    young;
  (* Per-kind histograms and the TTSP histogram cover every span. *)
  let by_kind =
    List.fold_left
      (fun acc k ->
        match Telemetry.pause_histogram telemetry k with
        | None -> acc
        | Some h -> acc + Histogram.count h)
      0 (Telemetry.kinds telemetry)
  in
  Alcotest.(check int) "per-kind histograms cover all spans"
    (Telemetry.span_count telemetry)
    by_kind;
  Alcotest.(check int) "safepoint histogram covers all spans"
    (Telemetry.span_count telemetry)
    (Histogram.count (Telemetry.safepoint_histogram telemetry))

let test_metrics_sampled () =
  let telemetry, _ = traced_run Gc_config.ParallelOld in
  let m = Telemetry.metrics telemetry in
  Alcotest.(check bool) "pause counter" true
    (Metrics.counter m "gc.pauses" > 0.0);
  Alcotest.(check bool) "alloc counter" true
    (Metrics.counter m "vm.allocated_bytes" > 0.0);
  let series = Metrics.series m "heap.used_bytes" in
  Alcotest.(check bool) "heap gauge sampled" true (Array.length series > 0);
  Array.iter
    (fun (t_us, v) ->
      Alcotest.(check bool) "gauge sample sane" true (t_us >= 0.0 && v >= 0.0))
    series

let test_disabled_registry_records_nothing () =
  let telemetry = Telemetry.disabled () in
  let bench = Option.get (Suite.find "xalan") in
  let gc =
    Gc_config.default Gc_config.G1 ~heap_bytes:(2048 * mb)
      ~young_bytes:(512 * mb)
  in
  let r =
    Harness.run ~telemetry ~iterations:2 (Machine.paper_server ()) bench ~gc
      ~system_gc:false ()
  in
  Alcotest.(check bool) "the run itself collected" true
    (List.length r.Harness.events > 0);
  Alcotest.(check int) "no spans" 0 (Telemetry.span_count telemetry);
  Alcotest.(check (float 0.0)) "no counters" 0.0
    (Metrics.counter (Telemetry.metrics telemetry) "gc.pauses")

(* --- sinks ----------------------------------------------------------- *)

let test_sinks () =
  let telemetry, _ = traced_run Gc_config.Cms in
  let jsonl = Sink.trace_jsonl telemetry in
  let lines = String.split_on_char '\n' (String.trim jsonl) in
  Alcotest.(check int) "one line per span + summaries"
    (Telemetry.span_count telemetry
    + List.length (Telemetry.kinds telemetry)
    + 1)
    (List.length lines);
  let has sub s =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "pause lines" true
    (has "\"type\":\"pause\"" (List.hd lines));
  Alcotest.(check bool) "summary lines" true (has "\"type\":\"summary\"" jsonl);
  Alcotest.(check bool) "safepoint summary" true
    (has "\"type\":\"safepoint-summary\"" jsonl);
  Alcotest.(check bool) "phases present" true (has "\"phases\"" jsonl);
  let csv = Sink.spans_csv telemetry in
  (match String.split_on_char '\n' csv with
  | header :: _ ->
      Alcotest.(check bool) "csv header" true (has "duration_us" header)
  | [] -> Alcotest.fail "empty spans csv");
  Alcotest.(check bool) "summary json parses percentiles" true
    (has "\"p99\"" (Sink.summary_json telemetry))

(* --- non-perturbation: byte-identical artifacts ---------------------- *)

let with_default_enabled value f =
  let saved = Telemetry.default_enabled () in
  Telemetry.set_default_enabled value;
  Fun.protect ~finally:(fun () -> Telemetry.set_default_enabled saved) f

let test_goldens_with_telemetry_on () =
  with_default_enabled true (fun () ->
      List.iter
        (fun id -> Golden.check (Golden.find id))
        [ "table2"; "table3"; "fig3" ])

let test_traced_run_unperturbed () =
  let _, traced = traced_run Gc_config.G1 in
  let bench = Option.get (Suite.find "xalan") in
  let gc =
    Gc_config.default Gc_config.G1 ~heap_bytes:(2048 * mb)
      ~young_bytes:(512 * mb)
  in
  let plain =
    Harness.run ~iterations:3 (Machine.paper_server ()) bench ~gc
      ~system_gc:false ()
  in
  Alcotest.(check (float 0.0)) "identical virtual time"
    plain.Harness.total_s traced.Harness.total_s;
  Alcotest.(check int) "identical GC event count"
    (List.length plain.Harness.events)
    (List.length traced.Harness.events)

let () =
  Alcotest.run "telemetry"
    [
      ( "histogram",
        [
          QCheck_alcotest.to_alcotest prop_percentiles_match;
          QCheck_alcotest.to_alcotest prop_merge;
          Alcotest.test_case "empty / single / clear" `Quick
            test_histogram_empty;
        ] );
      ( "spans",
        [
          Alcotest.test_case "g1 per-phase spans" `Quick test_g1_spans;
          Alcotest.test_case "metrics sampled" `Quick test_metrics_sampled;
          Alcotest.test_case "disabled registry" `Quick
            test_disabled_registry_records_nothing;
        ] );
      ("sinks", [ Alcotest.test_case "jsonl / csv / summary" `Quick test_sinks ]);
      ( "non-perturbation",
        [
          Alcotest.test_case "goldens with telemetry on" `Slow
            test_goldens_with_telemetry_on;
          Alcotest.test_case "traced run unperturbed" `Quick
            test_traced_run_unperturbed;
        ] );
    ]
