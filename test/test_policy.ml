(* Ergonomics policy tests.

   Unit level: the decaying average, decision clamping, and the adaptive
   size policy's reaction to synthetic observation streams.  Integration
   level: an adaptive VM run on a small heap must actually resize, stay
   deterministic, keep the collector invariants intact, converge its
   trailing pauses under the goal, and emit resize spans — while a
   fixed-size run attaches no policy at all. *)

module Policy = Gcperf_policy.Policy
module Asp = Gcperf_policy.Adaptive_size_policy
module Vm = Gcperf_runtime.Vm
module Machine = Gcperf_machine.Machine
module Gc_config = Gcperf_gc.Gc_config
module Telemetry = Gcperf_telemetry.Telemetry
module Span = Gcperf_telemetry.Span
module Suite = Gcperf_dacapo.Suite

let mb = 1024 * 1024

let machine = Machine.paper_server ()

(* --- decaying weighted average --------------------------------------- *)

let test_avg_warmup () =
  (* While warming up the average tracks the sample mean, not the zero
     initial value (HotSpot boosts the weight to 1/count). *)
  let a = Policy.Avg.create ~weight:25 in
  Policy.Avg.update a 100.0;
  Alcotest.(check (float 1e-9)) "first sample is the average" 100.0
    (Policy.Avg.value a);
  Policy.Avg.update a 50.0;
  Alcotest.(check (float 1e-9)) "second sample averages" 75.0
    (Policy.Avg.value a);
  Alcotest.(check int) "count" 2 (Policy.Avg.count a)

let test_avg_decay () =
  let a = Policy.Avg.create ~weight:25 in
  for _ = 1 to 50 do
    Policy.Avg.update a 10.0
  done;
  Policy.Avg.update a 110.0;
  (* One outlier moves a warmed-up average by exactly its weight. *)
  Alcotest.(check (float 1e-6)) "25% of the outlier" 35.0 (Policy.Avg.value a);
  for _ = 1 to 50 do
    Policy.Avg.update a 10.0
  done;
  Alcotest.(check bool) "decays back toward the stream" true
    (Policy.Avg.value a < 11.0)

(* --- decision clamping ----------------------------------------------- *)

let test_clamp_decision () =
  let limits = Policy.default_limits ~heap_bytes:(640 * mb) in
  let current = 100 * mb in
  let clamp d = Policy.clamp_decision limits ~current_young:current d in
  (* A jump far beyond the step bound is cut to one bounded step. *)
  let d =
    clamp { Policy.no_decision with Policy.young_bytes = Some (400 * mb) }
  in
  Alcotest.(check (option int)) "grow capped to max_step_frac"
    (Some (125 * mb)) d.Policy.young_bytes;
  let d = clamp { Policy.no_decision with Policy.young_bytes = Some 0 } in
  Alcotest.(check (option int)) "shrink capped to max_step_frac"
    (Some (75 * mb)) d.Policy.young_bytes;
  (* Range clamping: the floor is heap/64 (at least 1 MB). *)
  let near_floor =
    Policy.clamp_decision limits ~current_young:(11 * mb)
      { Policy.no_decision with Policy.young_bytes = Some (1 * mb) }
  in
  Alcotest.(check (option int)) "young floor" (Some (10 * mb))
    near_floor.Policy.young_bytes;
  let d =
    clamp
      {
        Policy.no_decision with
        Policy.survivor_ratio = Some 0;
        tenuring_threshold = Some 99;
      }
  in
  Alcotest.(check (option int)) "ratio floor" (Some 1) d.Policy.survivor_ratio;
  Alcotest.(check (option int)) "tenuring ceiling" (Some 15)
    d.Policy.tenuring_threshold;
  Alcotest.(check bool) "noop stays noop" true
    (Policy.is_noop (clamp Policy.no_decision))

(* --- adaptive size policy on synthetic streams ----------------------- *)

let obs ?(pause_class = Policy.Minor) ?(pause_ms = 10.0) ?(interval_ms = 1000.0)
    ?(survivor_overflow = false) ~young () =
  {
    Policy.pause_class;
    pause_ms;
    interval_ms;
    promoted_bytes = 0;
    survived_bytes = 0;
    survivor_overflow;
    young_capacity = young;
    heap_used = 0;
    heap_capacity = 640 * mb;
  }

let make_asp () =
  Asp.create
    (Asp.default_config ~heap_bytes:(640 * mb) ~young_bytes:(100 * mb)
       ~survivor_ratio:8 ~tenuring_threshold:6 ~pause_goal_ms:50.0
       ~gc_time_ratio:99)

let test_asp_pause_goal_shrinks () =
  let p = make_asp () in
  let young = ref (100 * mb) in
  let decisions = ref 0 in
  for _ = 1 to 10 do
    p.Policy.observe (obs ~pause_ms:200.0 ~young:!young ());
    match p.Policy.decide () with
    | Some d ->
        (match d.Policy.young_bytes with
        | Some y ->
            Alcotest.(check bool) "pause violation shrinks" true (y < !young);
            incr decisions;
            young := y
        | None -> ());
        p.Policy.applied
          { Policy.no_decision with Policy.young_bytes = Some !young }
    | None -> ()
  done;
  Alcotest.(check bool) "decisions were made" true (!decisions >= 3);
  let s = p.Policy.stats () in
  Alcotest.(check bool) "shrinks counted" true (s.Policy.shrinks >= 3);
  Alcotest.(check int) "no grows" 0 s.Policy.grows

let test_asp_throughput_goal_grows () =
  (* Pauses well under the goal but the mutator barely runs between
     them: GC cost over 1% must grow the young generation. *)
  let p = make_asp () in
  let young = ref (100 * mb) in
  let grew = ref false in
  for _ = 1 to 10 do
    p.Policy.observe (obs ~pause_ms:10.0 ~interval_ms:100.0 ~young:!young ());
    match p.Policy.decide () with
    | Some d ->
        (match d.Policy.young_bytes with
        | Some y ->
            if y > !young then grew := true;
            young := y
        | None -> ());
        p.Policy.applied
          { Policy.no_decision with Policy.young_bytes = Some !young }
    | None -> ()
  done;
  Alcotest.(check bool) "throughput violation grows" true !grew;
  let s = p.Policy.stats () in
  Alcotest.(check bool) "gc cost tracked" true (s.Policy.gc_cost > 0.01)

let test_asp_footprint_shrinks_when_idle () =
  (* Both goals satisfied: tiny pauses, long intervals.  The footprint
     goal gives memory back with the small decrement. *)
  let p = make_asp () in
  let young = ref (100 * mb) in
  let shrank = ref false in
  for _ = 1 to 10 do
    p.Policy.observe (obs ~pause_ms:1.0 ~interval_ms:10_000.0 ~young:!young ());
    match p.Policy.decide () with
    | Some d ->
        (match d.Policy.young_bytes with
        | Some y ->
            if y < !young then shrank := true;
            young := y
        | None -> ());
        p.Policy.applied
          { Policy.no_decision with Policy.young_bytes = Some !young }
    | None -> ()
  done;
  Alcotest.(check bool) "footprint shrink" true !shrank

let test_asp_survivor_overflow_lowers_tenuring () =
  let p = make_asp () in
  let tenuring = ref None in
  for _ = 1 to 8 do
    p.Policy.observe
      (obs ~survivor_overflow:true ~young:(100 * mb) ());
    match p.Policy.decide () with
    | Some d ->
        (match d.Policy.tenuring_threshold with
        | Some t -> tenuring := Some t
        | None -> ());
        p.Policy.applied d
    | None -> ()
  done;
  let default_threshold =
    (Gc_config.default Gc_config.Serial ~heap_bytes:mb ~young_bytes:mb)
      .Gc_config.tenuring_threshold
  in
  (match !tenuring with
  | Some t ->
      Alcotest.(check bool) "threshold lowered" true (t < default_threshold)
  | None -> Alcotest.fail "survivor overflow never lowered the threshold");
  let s = p.Policy.stats () in
  Alcotest.(check bool) "tenuring changes counted" true
    (s.Policy.tenuring_changes >= 1)

(* --- VM integration -------------------------------------------------- *)

let xalan () =
  match Suite.find "xalan" with
  | Some b -> b
  | None -> Alcotest.fail "xalan missing from the suite"

(* Xalan fits a 1 GB heap; Serial there pauses for ~270 ms on average at
   the configured 512 MB young generation, so a 60 ms goal forces the
   policy to shrink hard — and 60 ms is attainable (the pause floor at
   the minimum young size is ~46 ms). *)
let adaptive_config ~pause_goal_ms =
  {
    (Gc_config.default Gc_config.Serial ~heap_bytes:(1024 * mb)
       ~young_bytes:(512 * mb))
    with
    Gc_config.adaptive = true;
    pause_goal_ms;
  }

let test_fixed_run_has_no_policy () =
  let config =
    Gc_config.default Gc_config.Serial ~heap_bytes:(64 * mb)
      ~young_bytes:(16 * mb)
  in
  let vm = Vm.create machine config ~seed:3 in
  Alcotest.(check bool) "no policy attached" true (Vm.policy vm = None)

let test_adaptive_run_resizes_and_converges () =
  let goal = 60.0 in
  let r =
    Gcperf.Exp_ergonomics.measure machine (xalan ())
      ~gc:(adaptive_config ~pause_goal_ms:goal)
      ~iterations:10 ~seed:7
  in
  Alcotest.(check bool) "run survived" false r.Gcperf.Exp_ergonomics.oom;
  Alcotest.(check bool) "minor collections happened" true
    (r.Gcperf.Exp_ergonomics.minor_pauses >= 10);
  Alcotest.(check bool) "the policy resized the young generation" true
    (r.Gcperf.Exp_ergonomics.resizes >= 1);
  Alcotest.(check bool) "young shrank from its configured size" true
    (r.Gcperf.Exp_ergonomics.final_young_bytes < 512 * mb);
  Alcotest.(check bool)
    (Printf.sprintf "trailing p99 (%.1f ms) within the %.0f ms goal"
       r.Gcperf.Exp_ergonomics.trailing_p99_ms goal)
    true
    (r.Gcperf.Exp_ergonomics.trailing_p99_ms <= goal);
  Alcotest.(check bool) "trajectory has one point per minor" true
    (List.length r.Gcperf.Exp_ergonomics.trajectory
    = r.Gcperf.Exp_ergonomics.minor_pauses)

let test_adaptive_run_deterministic () =
  let run () =
    let r =
      Gcperf.Exp_ergonomics.measure machine (xalan ())
        ~gc:(adaptive_config ~pause_goal_ms:60.0)
        ~iterations:3 ~seed:7
    in
    ( r.Gcperf.Exp_ergonomics.minor_pauses,
      r.Gcperf.Exp_ergonomics.final_young_bytes,
      r.Gcperf.Exp_ergonomics.total_s,
      r.Gcperf.Exp_ergonomics.resizes )
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical reruns" true (a = b)

let test_adaptive_invariants_all_collectors () =
  List.iter
    (fun kind ->
      let config =
        {
          (Gc_config.default kind ~heap_bytes:(128 * mb)
             ~young_bytes:(48 * mb))
          with
          Gc_config.adaptive = true;
          pause_goal_ms = 5.0;
        }
      in
      let vm = Vm.create machine config ~seed:17 in
      let th = Vm.spawn_thread vm in
      (try
         for _ = 1 to 600 do
           ignore
             (Vm.alloc vm th ~size:(128 * 1024) ~lifetime:(`Bytes (1 * mb)));
           Vm.step vm ~dt_us:500.0 (fun _ -> ())
         done
       with Gcperf_gc.Gc_ctx.Out_of_memory _ -> ());
      (match Vm.check_invariants vm with
      | Ok () -> ()
      | Error e ->
          Alcotest.failf "%s invariants under adaptive sizing: %s"
            (Gc_config.kind_to_string kind)
            e);
      match Vm.policy vm with
      | None -> Alcotest.fail "policy not attached"
      | Some p ->
          let s = p.Policy.stats () in
          Alcotest.(check bool)
            (Gc_config.kind_to_string kind ^ " observed pauses")
            true
            (s.Policy.observations >= 1))
    Gc_config.all_kinds

let test_resize_spans_emitted () =
  let telemetry = Telemetry.create ~enabled:true () in
  let config = adaptive_config ~pause_goal_ms:60.0 in
  let vm = Vm.create ~telemetry machine config ~seed:7 in
  let mut =
    Gcperf_workload.Mutator.create vm (xalan ()).Suite.profile ~seed:7
  in
  for _ = 1 to 3 do
    ignore (Gcperf_workload.Mutator.run_iteration mut)
  done;
  let resize_spans =
    List.filter (fun s -> s.Span.kind = "resize") (Telemetry.spans telemetry)
  in
  Alcotest.(check bool) "resize spans recorded" true
    (List.length resize_spans >= 1);
  List.iter
    (fun s ->
      Alcotest.(check (float 0.0)) "resizes take no virtual time" 0.0
        s.Span.duration_us;
      Alcotest.(check string) "cause" "adaptive sizing policy" s.Span.cause;
      Alcotest.(check bool) "young changed" true
        (s.Span.young_before <> s.Span.young_after))
    resize_spans

let () =
  Alcotest.run "policy"
    [
      ( "avg",
        [
          Alcotest.test_case "warmup tracks mean" `Quick test_avg_warmup;
          Alcotest.test_case "decay" `Quick test_avg_decay;
        ] );
      ( "limits",
        [ Alcotest.test_case "clamp_decision" `Quick test_clamp_decision ] );
      ( "adaptive policy",
        [
          Alcotest.test_case "pause goal shrinks" `Quick
            test_asp_pause_goal_shrinks;
          Alcotest.test_case "throughput goal grows" `Quick
            test_asp_throughput_goal_grows;
          Alcotest.test_case "footprint shrink" `Quick
            test_asp_footprint_shrinks_when_idle;
          Alcotest.test_case "survivor overflow" `Quick
            test_asp_survivor_overflow_lowers_tenuring;
        ] );
      ( "vm integration",
        [
          Alcotest.test_case "fixed run has no policy" `Quick
            test_fixed_run_has_no_policy;
          Alcotest.test_case "adaptive resizes and converges" `Quick
            test_adaptive_run_resizes_and_converges;
          Alcotest.test_case "deterministic" `Quick
            test_adaptive_run_deterministic;
          Alcotest.test_case "invariants on all collectors" `Quick
            test_adaptive_invariants_all_collectors;
          Alcotest.test_case "resize spans" `Quick test_resize_spans_emitted;
        ] );
    ]
