(* Tests for the statistics library, including the paper's latency-bucket
   analysis (Tables 5-7). *)

module Stats = Gcperf_stats.Stats

let feq = Alcotest.float 1e-9

let test_mean () =
  Alcotest.check feq "empty" 0.0 (Stats.mean [||]);
  Alcotest.check feq "mean" 2.0 (Stats.mean [| 1.0; 2.0; 3.0 |])

let test_variance_stddev () =
  Alcotest.check feq "constant" 0.0 (Stats.variance [| 4.0; 4.0 |]);
  Alcotest.check feq "var" 2.0 (Stats.variance [| 1.0; 3.0; 1.0; 3.0; 2.0; 2.0 |] *. 3.0)

let test_rsd () =
  Alcotest.check feq "zero mean" 0.0 (Stats.rsd [| 1.0; -1.0 |]);
  (* [2;4]: mean 3, stddev 1 -> 33.33% *)
  let r = Stats.rsd [| 2.0; 4.0 |] in
  Alcotest.(check bool) "33.3%" true (Float.abs (r -. 33.3333333) < 1e-4)

let test_rsd_scale_invariant () =
  let xs = [| 3.0; 5.0; 8.0; 13.0 |] in
  let scaled = Array.map (fun x -> x *. 17.0) xs in
  Alcotest.(check bool) "scale invariant" true
    (Float.abs (Stats.rsd xs -. Stats.rsd scaled) < 1e-9)

let test_min_max_sum () =
  let lo, hi = Stats.min_max [| 3.0; -1.0; 7.0 |] in
  Alcotest.check feq "min" (-1.0) lo;
  Alcotest.check feq "max" 7.0 hi;
  Alcotest.check feq "sum" 9.0 (Stats.sum [| 3.0; -1.0; 7.0 |]);
  Alcotest.check_raises "empty raises"
    (Invalid_argument "Stats.min_max: empty") (fun () ->
      ignore (Stats.min_max [||]))

let test_percentile () =
  let xs = [| 10.0; 20.0; 30.0; 40.0; 50.0 |] in
  Alcotest.check feq "p0" 10.0 (Stats.percentile xs 0.0);
  Alcotest.check feq "p50" 30.0 (Stats.percentile xs 50.0);
  Alcotest.check feq "p100" 50.0 (Stats.percentile xs 100.0);
  Alcotest.check feq "p25 interpolates" 20.0 (Stats.percentile xs 25.0);
  Alcotest.check feq "median" 30.0 (Stats.median xs)

let test_histogram () =
  let h = Stats.histogram ~buckets:4 ~lo:0.0 ~hi:4.0 [| 0.5; 1.5; 1.6; 3.9; -1.0; 7.0 |] in
  Alcotest.(check (array int)) "counts" [| 1; 2; 0; 1 |] h.Stats.counts;
  Alcotest.(check int) "underflow" 1 h.Stats.underflow;
  Alcotest.(check int) "overflow" 1 h.Stats.overflow;
  Alcotest.(check int) "total" 6 h.Stats.total

let test_top_k_by () =
  let xs = [ 5; 1; 9; 3; 9; 2 ] in
  Alcotest.(check (list int)) "top 3, order kept" [ 5; 9; 9 ]
    (Stats.top_k_by float_of_int 3 xs);
  Alcotest.(check (list int)) "k >= n" xs (Stats.top_k_by float_of_int 10 xs);
  Alcotest.(check (list int)) "k = 0" [] (Stats.top_k_by float_of_int 0 xs)

let test_latency_report_basic () =
  (* 8 fast points at 1ms, 2 slow GC-correlated points at 10ms. *)
  let points =
    Array.append
      (Array.make 8 (1.0, false))
      (Array.make 2 (10.0, true))
  in
  let r = Stats.latency_report points in
  Alcotest.(check bool) "avg = 2.8" true (Float.abs (r.Stats.avg_ms -. 2.8) < 1e-9);
  Alcotest.check feq "max" 10.0 r.Stats.max_ms;
  Alcotest.check feq "min" 1.0 r.Stats.min_ms;
  (* 1ms is below 0.5x-1.5x of 2.8 (1.4..4.2): none in band. *)
  Alcotest.check feq "band empty" 0.0 r.Stats.around_avg.Stats.pct_requests;
  (* >2x avg = >5.6: exactly the 2 GC points. *)
  (match r.Stats.above with
  | b :: _ ->
      Alcotest.check feq ">2x pct" 20.0 b.Stats.pct_requests;
      Alcotest.check feq ">2x all GC" 100.0 b.Stats.pct_gc
  | [] -> Alcotest.fail "expected >2x band")

let test_latency_report_empty_raises () =
  Alcotest.check_raises "empty raises"
    (Invalid_argument "Stats.latency_report: empty") (fun () ->
      ignore (Stats.latency_report [||]))

let prop_bands_monotone =
  (* The >2^n bands are nested, so request percentages must decrease. *)
  QCheck.Test.make ~name:"latency bands shrink" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 200) (pair pos_float bool))
    (fun pts ->
      QCheck.assume (pts <> []);
      let pts = List.map (fun (l, g) -> (Float.min l 1e6, g)) pts in
      let r = Stats.latency_report (Array.of_list pts) in
      let rec decreasing = function
        | a :: (b :: _ as tl) ->
            a.Stats.pct_requests >= b.Stats.pct_requests -. 1e-9
            && decreasing tl
        | _ -> true
      in
      decreasing r.Stats.above)

let prop_band_bounds =
  QCheck.Test.make ~name:"band percentages within [0,100]" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 100) (pair pos_float bool))
    (fun pts ->
      QCheck.assume (pts <> []);
      let pts = List.map (fun (l, g) -> (Float.min l 1e6, g)) pts in
      let r = Stats.latency_report (Array.of_list pts) in
      let ok b =
        b.Stats.pct_requests >= 0.0
        && b.Stats.pct_requests <= 100.0
        && b.Stats.pct_gc >= 0.0
        && b.Stats.pct_gc <= 100.0
      in
      ok r.Stats.around_avg && List.for_all ok r.Stats.above)

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentile is monotone in p" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 50) float)
    (fun xs ->
      QCheck.assume (List.for_all Float.is_finite xs);
      let arr = Array.of_list xs in
      Stats.percentile arr 25.0 <= Stats.percentile arr 75.0 +. 1e-9)

let () =
  Alcotest.run "stats"
    [
      ( "descriptive",
        [
          Alcotest.test_case "mean" `Quick test_mean;
          Alcotest.test_case "variance/stddev" `Quick test_variance_stddev;
          Alcotest.test_case "rsd" `Quick test_rsd;
          Alcotest.test_case "rsd scale-invariant" `Quick test_rsd_scale_invariant;
          Alcotest.test_case "min/max/sum" `Quick test_min_max_sum;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "top_k_by" `Quick test_top_k_by;
        ] );
      ( "latency buckets",
        [
          Alcotest.test_case "basic report" `Quick test_latency_report_basic;
          Alcotest.test_case "empty raises" `Quick test_latency_report_empty_raises;
          QCheck_alcotest.to_alcotest prop_bands_monotone;
          QCheck_alcotest.to_alcotest prop_band_bounds;
          QCheck_alcotest.to_alcotest prop_percentile_monotone;
        ] );
    ]
