(* Telemetry subsystem tests.

   Three concerns: the log-bucketed histogram must agree with naive
   sort-based nearest-rank quantiles to within its bucket resolution
   (property-tested), the collectors must log well-formed per-phase
   pauses whether telemetry is on or off, and — the load-bearing
   invariant — enabling telemetry must not perturb the simulation: with
   the registry on by default, ci-scope artifacts still match the
   goldens that test_exec checks with it off. *)

module Histogram = Gcperf_telemetry.Histogram
module Gc_event = Gcperf_sim.Gc_event
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

(* --- pause phases from real collector runs --------------------------- *)

let traced_run_with ~enabled ~heap ~young ~iterations kind =
  let telemetry = Telemetry.create ~enabled () in
  let bench = Option.get (Suite.find "xalan") in
  let gc =
    Gc_config.default kind ~heap_bytes:(heap * mb) ~young_bytes:(young * mb)
  in
  let r, log =
    Harness.run_with_log ~telemetry ~iterations (Machine.paper_server ()) bench
      ~gc ~system_gc:false ()
  in
  (telemetry, log, r)

let traced_run =
  traced_run_with ~enabled:true ~heap:2048 ~young:512 ~iterations:3

let has sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* The integer after [key] in [line]. *)
let int_field key line =
  let n = String.length key in
  let rec find i =
    if i + n > String.length line then Alcotest.failf "%s missing" key
    else if String.sub line i n = key then i + n
    else find (i + 1)
  in
  let start = find 0 in
  let stop = ref start in
  while
    !stop < String.length line && line.[!stop] >= '0' && line.[!stop] <= '9'
  do
    incr stop
  done;
  int_of_string (String.sub line start (!stop - start))

(* Every pause leads with its time-to-safepoint, its duration is exactly
   the left-to-right sum of its charged phases from 0.0, and its sub
   entries (if any) are plan/move attributions only. *)
let check_pause_phases ~what log =
  for i = 0 to Gc_event.count log - 1 do
    let e = Gc_event.nth log i in
    let phases = Gc_event.phases log i in
    let label = Printf.sprintf "%s pause %d" what i in
    (match phases with
    | (Gc_event.Safepoint, _) :: _ -> ()
    | [] -> Alcotest.failf "%s has no phases" label
    | _ -> Alcotest.failf "%s does not lead with safepoint" label);
    let sum = List.fold_left (fun acc (_, us) -> acc +. us) 0.0 phases in
    if Int64.bits_of_float sum <> Int64.bits_of_float e.Gc_event.duration_us
    then
      Alcotest.failf "%s: phases sum to %h, duration %h" label sum
        e.Gc_event.duration_us;
    List.iter
      (fun (p, _) ->
        match p with
        | Gc_event.Plan | Gc_event.Move ->
            Alcotest.failf "%s charges a sub-phase" label
        | _ -> ())
      phases;
    List.iter
      (fun (p, _) ->
        match p with
        | Gc_event.Plan | Gc_event.Move -> ()
        | p ->
            Alcotest.failf "%s has a %s sub entry" label
              (Gc_event.phase_to_string p))
      (Gc_event.subs log i)
  done

let test_g1_spans () =
  let telemetry, log, r = traced_run Gc_config.G1 in
  let n = Gc_event.count log in
  Alcotest.(check bool) "pauses logged" true (n > 0);
  Alcotest.(check int) "the log holds every GC event"
    (List.length r.Harness.events) n;
  check_pause_phases ~what:"g1" log;
  let young = ref 0 in
  for i = 0 to n - 1 do
    let e = Gc_event.nth log i in
    Alcotest.(check string) "collector tag" "G1GC" e.Gc_event.collector;
    match e.Gc_event.kind with
    | Gc_event.Young ->
        incr young;
        Alcotest.(check bool) "young pause has a copy phase" true
          (List.mem_assoc Gc_event.Copy (Gc_event.phases log i))
    | _ -> ()
  done;
  Alcotest.(check bool) "young pauses traced" true (!young > 0);
  (* The per-kind summaries and the TTSP summary cover every pause. *)
  let lines = String.split_on_char '\n' (Sink.trace_jsonl log) in
  let count_of typ =
    List.fold_left
      (fun acc line ->
        if has (Printf.sprintf "{\"type\":\"%s\"" typ) line then
          acc + int_field "\"count\":" line
        else acc)
      0 lines
  in
  Alcotest.(check int) "per-kind summaries cover all pauses" n
    (count_of "summary");
  Alcotest.(check int) "safepoint summary covers all pauses" n
    (count_of "safepoint-summary");
  Alcotest.(check (float 0.0)) "pause counter" (float_of_int n)
    (Metrics.counter (Telemetry.metrics telemetry) "gc.pauses")

(* With telemetry off, every collector still logs each pause's phases.
   A 256 MB heap with a 64 MB young generation forces young, full and
   concurrent-cycle pauses between them. *)
let test_phases_always_present () =
  let kinds = Hashtbl.create 8 in
  List.iter
    (fun kind ->
      let telemetry, log, _ =
        traced_run_with ~enabled:false ~heap:256 ~young:64 ~iterations:2 kind
      in
      let what = Gc_config.kind_to_string kind in
      Alcotest.(check bool) (what ^ " logged pauses") true
        (Gc_event.count log > 0);
      check_pause_phases ~what log;
      for i = 0 to Gc_event.count log - 1 do
        Hashtbl.replace kinds (Gc_event.nth log i).Gc_event.kind ()
      done;
      Alcotest.(check (list string)) (what ^ ": no counters") []
        (Metrics.counter_names (Telemetry.metrics telemetry)))
    Gc_config.extended_kinds;
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Gc_event.pause_kind_to_string k ^ " pauses seen")
        true (Hashtbl.mem kinds k))
    Gc_event.[ Young; Full; Initial_mark; Remark; Mixed; Cleanup ]

let test_metrics_sampled () =
  let telemetry, _, _ = traced_run Gc_config.ParallelOld in
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

(* Interned handles against by-name [incr] on a twin registry: random
   bumps (some of -0.0, the one float whose first bump and [0.0 +. by]
   differ), interleaved with [clear], must leave the same counters in
   the same registration order with bit-identical values. *)
let prop_handles_equal_incr =
  let names = [| "a"; "b"; "c" |] in
  QCheck.Test.make ~name:"handle bumps equal incr" ~count:300
    QCheck.(
      list_of_size Gen.(0 -- 60)
        (option (pair (int_range 0 2) (oneofl [ -0.0; 0.5; 1.0; 3.25 ]))))
    (fun ops ->
      let m = Metrics.create () and twin = Metrics.create () in
      let handles = Array.map (Metrics.handle m) names in
      let snapshot t =
        List.map
          (fun name -> (name, Int64.bits_of_float (Metrics.counter t name)))
          (Metrics.counter_names t)
      in
      List.for_all
        (fun op ->
          (match op with
          | Some (i, by) ->
              Metrics.bump handles.(i) by;
              Metrics.incr twin names.(i) by
          | None ->
              Metrics.clear m;
              Metrics.clear twin);
          snapshot m = snapshot twin)
        ops)

(* Interned gauges against by-name [sample] on a twin registry, with
   [clear]s in between, and a counter handle read before and after its
   name is registered: same series, same order, same points, and the
   read equals [counter]. *)
let prop_gauges_equal_sample =
  let names = [| "g"; "h" |] in
  QCheck.Test.make ~name:"gauge observes equal sample" ~count:300
    QCheck.(
      list_of_size Gen.(0 -- 60)
        (option (pair (int_range 0 2) (oneofl [ -0.0; 0.5; 1.0; 3.25 ]))))
    (fun ops ->
      let m = Metrics.create () and twin = Metrics.create () in
      let gauges = Array.map (Metrics.gauge m) names in
      let total = Metrics.handle m "total" in
      let snapshot t =
        List.map
          (fun name ->
            ( name,
              Array.map
                (fun (t_us, v) ->
                  (Int64.bits_of_float t_us, Int64.bits_of_float v))
                (Metrics.series t name) ))
          (Metrics.series_names t)
      in
      List.for_all
        (fun op ->
          (match op with
          | Some (2, by) ->
              Metrics.incr m "total" by;
              Metrics.incr twin "total" by
          | Some (i, v) ->
              Metrics.observe gauges.(i) ~t_us:(Metrics.value total) v;
              Metrics.sample twin names.(i)
                ~t_us:(Metrics.counter twin "total")
                v
          | None ->
              Metrics.clear m;
              Metrics.clear twin);
          snapshot m = snapshot twin
          && Int64.bits_of_float (Metrics.value total)
             = Int64.bits_of_float (Metrics.counter twin "total"))
        ops)

(* A disabled registry records no counter or gauge, yet the pause log
   still carries every pause with its phases. *)
let test_disabled_registry_records_nothing () =
  let telemetry = Telemetry.disabled () in
  let bench = Option.get (Suite.find "xalan") in
  let gc =
    Gc_config.default Gc_config.G1 ~heap_bytes:(2048 * mb)
      ~young_bytes:(512 * mb)
  in
  let r, log =
    Harness.run_with_log ~telemetry ~iterations:2 (Machine.paper_server ())
      bench ~gc ~system_gc:false ()
  in
  Alcotest.(check bool) "the run itself collected" true
    (List.length r.Harness.events > 0);
  Alcotest.(check int) "every pause logged"
    (List.length r.Harness.events)
    (Gc_event.count log);
  check_pause_phases ~what:"untraced g1" log;
  Alcotest.(check (float 0.0)) "no counters" 0.0
    (Metrics.counter (Telemetry.metrics telemetry) "gc.pauses");
  Alcotest.(check string) "no metric rows" "series,t_us,value\n"
    (Sink.metrics_csv telemetry)

(* --- sinks ----------------------------------------------------------- *)

let test_sinks () =
  let _, log, _ = traced_run Gc_config.Cms in
  let jsonl = Sink.trace_jsonl log in
  let lines = String.split_on_char '\n' (String.trim jsonl) in
  let kinds =
    List.sort_uniq compare
      (List.map (fun e -> e.Gc_event.kind) (Gc_event.events log))
  in
  Alcotest.(check int) "one line per pause + summaries"
    (Gc_event.count log + List.length kinds + 1)
    (List.length lines);
  Alcotest.(check bool) "pause lines" true
    (has "\"type\":\"pause\"" (List.hd lines));
  Alcotest.(check bool) "summary lines" true
    (has "\"type\":\"summary\"" jsonl);
  Alcotest.(check bool) "safepoint summary" true
    (has "\"type\":\"safepoint-summary\"" jsonl);
  Alcotest.(check bool) "phases present" true (has "\"phases\"" jsonl);
  let csv = Sink.pauses_csv log in
  (match String.split_on_char '\n' csv with
  | header :: _ ->
      Alcotest.(check bool) "csv header" true (has "duration_us" header)
  | [] -> Alcotest.fail "empty pauses csv");
  Alcotest.(check bool) "summary json parses percentiles" true
    (has "\"p99\"" (Sink.summary_json (Sink.summarise log)))

(* --- non-perturbation: byte-identical artifacts ---------------------- *)

let with_default_enabled value f =
  let saved = Telemetry.default_enabled () in
  Telemetry.set_default_enabled value;
  Fun.protect ~finally:(fun () -> Telemetry.set_default_enabled saved) f

let test_goldens_with_telemetry_on () =
  with_default_enabled true (fun () ->
      List.iter
        (fun id -> ignore (Golden.check (Golden.find id)))
        [ "table2"; "table3"; "fig3" ])

let test_traced_run_unperturbed () =
  let _, _, traced = traced_run Gc_config.G1 in
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
          Alcotest.test_case "phases always present" `Quick
            test_phases_always_present;
        ] );
      ( "metrics",
        [
          QCheck_alcotest.to_alcotest prop_handles_equal_incr;
          QCheck_alcotest.to_alcotest prop_gauges_equal_sample;
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
