(* Tests for the fault-injection and resilience layer: the injector,
   the degraded gateway, the resilient client session and the
   [faults] experiment grid. *)

module Profile = Gcperf_fault.Profile
module Injector = Gcperf_fault.Injector
module Gateway = Gcperf_kvstore.Gateway
module Client = Gcperf_ycsb.Client
module Resilient = Gcperf_ycsb.Resilient
module Exp_faults = Gcperf.Exp_faults

(* --- profiles ------------------------------------------------------- *)

let test_profile_round_trip () =
  List.iter
    (fun p ->
      match Profile.of_string p.Profile.name with
      | Some q ->
          Alcotest.(check string) "round trip" p.Profile.name q.Profile.name
      | None -> Alcotest.failf "profile %s not found by name" p.Profile.name)
    Profile.all;
  Alcotest.(check bool) "unknown profile rejected" true
    (Profile.of_string "bogus" = None)

(* [of_string] mirrors [Gc_config.kind_of_string]: case-insensitive,
   blind to separators, and accepting the obvious shorthands. *)
let test_profile_spellings () =
  let resolves spelling expected =
    match Profile.of_string spelling with
    | Some p ->
        Alcotest.(check string)
          (spelling ^ " resolves")
          expected (Profile.to_string p)
    | None -> Alcotest.failf "spelling %s not accepted" spelling
  in
  resolves "Pause-Spike" "pause-spike";
  resolves "pause_spike" "pause-spike";
  resolves "pause spike" "pause-spike";
  resolves "spike" "pause-spike";
  resolves "FlakyNetwork" "flaky-network";
  resolves "flaky" "flaky-network";
  resolves "off" "none";
  resolves "STORM" "storm"

(* --- injector ------------------------------------------------------- *)

let drive inj times =
  List.map
    (fun t ->
      Injector.advance_to inj t;
      Injector.outcome inj)
    times

let test_injector_deterministic () =
  let times = List.init 500 (fun i -> float_of_int i *. 0.37) in
  let make () =
    Injector.create ~profile:Profile.storm ~seed:9 ~pauses:[| (5.0, 7.0) |]
  in
  Alcotest.(check bool) "same seed, same schedule" true
    (drive (make ()) times = drive (make ()) times)

let test_injector_none_passes () =
  let inj = Injector.create ~profile:Profile.none ~seed:9 ~pauses:[||] in
  let times = List.init 200 (fun i -> float_of_int i) in
  Alcotest.(check bool) "no faults under the none profile" true
    (List.for_all (fun o -> o = Injector.Pass) (drive inj times))

let test_injector_flaky_faults () =
  let inj = Injector.create ~profile:Profile.flaky_network ~seed:9 ~pauses:[||] in
  let outcomes = drive inj (List.init 5_000 (fun i -> float_of_int i *. 0.1)) in
  let count p = List.length (List.filter p outcomes) in
  let delays = count (function Injector.Delay _ -> true | _ -> false) in
  let drops = count (fun o -> o = Injector.Drop) in
  (* 5% delay / 1% drop over 5000 draws. *)
  Alcotest.(check bool) "delays near 5%" true (delays > 150 && delays < 400);
  Alcotest.(check bool) "drops near 1%" true (drops > 20 && drops < 100);
  List.iter
    (function
      | Injector.Delay ms ->
          Alcotest.(check bool) "delay within profile bounds" true
            (ms >= 5.0 && ms <= 80.0)
      | _ -> ())
    outcomes

let test_load_multiplier_spikes () =
  let inj =
    Injector.create ~profile:Profile.storm ~seed:9 ~pauses:[| (300.0, 304.0) |]
  in
  (* Fixed spike at 120 s for 30 s, x3. *)
  Alcotest.(check (float 1e-9)) "before the spike" 1.0
    (Injector.load_multiplier inj 100.0);
  Alcotest.(check (float 1e-9)) "inside the fixed spike" 3.0
    (Injector.load_multiplier inj 125.0);
  Alcotest.(check (float 1e-9)) "after the spike" 1.0
    (Injector.load_multiplier inj 160.0);
  (* Pause window (x4) covers the pause plus a 2 s tail. *)
  Alcotest.(check (float 1e-9)) "during the pause" 4.0
    (Injector.load_multiplier inj 301.0);
  Alcotest.(check (float 1e-9)) "inside the tail" 4.0
    (Injector.load_multiplier inj 305.5);
  Alcotest.(check (float 1e-9)) "after the tail" 1.0
    (Injector.load_multiplier inj 310.0)

(* --- gateway -------------------------------------------------------- *)

let test_gateway_unbounded_never_rejects () =
  let gw = Gateway.create Gateway.unbounded ~pauses:[| (1.0, 3.0) |] in
  for i = 0 to 999 do
    match Gateway.offer gw ~now_s:(float_of_int i *. 0.001) ~service_ms:5.0 with
    | Gateway.Served _ -> ()
    | Gateway.Shed | Gateway.Fast_rejected ->
        Alcotest.fail "unbounded gateway rejected a request"
  done;
  Alcotest.(check int) "all served" 1000 (Gateway.served gw)

let test_gateway_pause_stretches_service () =
  let gw = Gateway.create Gateway.unbounded ~pauses:[| (1.0, 3.0) |] in
  (* Arrives mid-pause: cannot finish before the safepoint releases. *)
  match Gateway.offer gw ~now_s:1.5 ~service_ms:1.0 with
  | Gateway.Served { finish_s; _ } ->
      Alcotest.(check bool) "finishes after the pause end" true
        (finish_s >= 3.0)
  | _ -> Alcotest.fail "request rejected"

let test_gateway_sheds_over_capacity () =
  let gw = Gateway.create Gateway.degraded ~pauses:[||] in
  (* Long service + instantaneous arrivals: the queue must overflow. *)
  for i = 0 to 999 do
    ignore
      (Gateway.offer gw ~now_s:(float_of_int i *. 1e-6) ~service_ms:10_000.0)
  done;
  Alcotest.(check bool) "some requests shed" true (Gateway.sheds gw > 0);
  Alcotest.(check bool) "queue bounded by capacity" true
    (Gateway.queue_length gw ~now_s:0.001
    <= Gateway.degraded.Gateway.queue_capacity)

let test_gateway_fast_rejects_during_pause () =
  let gw = Gateway.create Gateway.degraded ~pauses:[| (1.0, 20.0) |] in
  (* Flood while the safepoint is held: once the queue passes the fill
     threshold, arrivals bounce on the fast path. *)
  for i = 0 to 499 do
    ignore
      (Gateway.offer gw
         ~now_s:(1.0 +. (float_of_int i *. 1e-4))
         ~service_ms:1.0)
  done;
  Alcotest.(check bool) "fast rejections during the pause" true
    (Gateway.fast_rejects gw > 0)

(* --- resilient session ---------------------------------------------- *)

let workload =
  {
    Client.paper_workload with
    Client.duration_s = 120.0;
    ops_per_s = 50.0;
  }

let session ?(profile = Profile.flaky_network) ?(resilient = true) ?(seed = 3)
    () =
  let resilience =
    if resilient then Resilient.paper_defaults else Resilient.none
  in
  let gateway = if resilient then Gateway.degraded else Gateway.unbounded in
  Resilient.run workload ~profile ~resilience ~gateway
    ~pauses:[| (30.0, 32.0); (70.0, 71.0) |]
    ~db_timeline:[||] ~seed

let test_session_deterministic () =
  Alcotest.(check bool) "same seed, same summary" true
    (session () = session ());
  Alcotest.(check bool) "different seed, different summary" true
    (session () <> session ~seed:4 ())

let test_session_accounting () =
  let s = session () in
  Alcotest.(check int) "every request resolves" s.Resilient.requests
    (s.Resilient.ok + s.Resilient.failed);
  Alcotest.(check bool) "attempts >= requests" true
    (s.Resilient.attempts >= s.Resilient.requests);
  Alcotest.(check (float 1e-9)) "amplification = attempts/requests"
    (float_of_int s.Resilient.attempts /. float_of_int s.Resilient.requests)
    s.Resilient.retry_amplification

let test_session_without_resilience_never_retries () =
  let s = session ~resilient:false () in
  Alcotest.(check int) "one attempt per request" s.Resilient.requests
    s.Resilient.attempts;
  Alcotest.(check int) "no retries" 0 s.Resilient.retries;
  Alcotest.(check int) "no timeouts without a timeout" 0 s.Resilient.timeouts;
  Alcotest.(check int) "no hedging" 0 s.Resilient.hedge_wins;
  (* Without a timeout or retry, every injected drop and error is a
     terminal failure. *)
  Alcotest.(check int) "failures = drops + errors" s.Resilient.failed
    (s.Resilient.drops + s.Resilient.errors)

let test_session_retries_recover_drops () =
  let s = session () in
  let naive = session ~resilient:false () in
  Alcotest.(check bool) "drops were retried into timeouts" true
    (s.Resilient.timeouts > 0);
  Alcotest.(check bool) "retries happened" true (s.Resilient.retries > 0);
  Alcotest.(check bool) "fewer failures than the naive client" true
    (s.Resilient.failed < naive.Resilient.failed);
  Alcotest.(check bool) "resilience recovers most requests" true
    (float_of_int s.Resilient.ok
    >= 0.98 *. float_of_int s.Resilient.requests)

(* Every field of a summary, floats as exact hex, so a pin fails on any
   change to the PRNG draw order or the event tie order that moves a
   single request.  The ci golden rounds these values and cannot. *)
let pin (s : Resilient.summary) =
  Printf.sprintf
    "%s req=%d ok=%d failed=%d att=%d retries=%d amp=%h goodput=%h p50=%h \
     p99=%h p999=%h max=%h timeouts=%d sheds=%d fast=%d drops=%d errors=%d \
     hedge_wins=%d"
    s.Resilient.profile s.requests s.ok s.failed s.attempts s.retries
    s.retry_amplification s.goodput_ops_s s.p50_ms s.p99_ms s.p999_ms
    s.max_ms s.timeouts s.sheds s.fast_rejects s.drops s.errors s.hedge_wins

(* The database crosses the 8 GiB and 16 GiB read steps mid-session, so
   reads take the step lookup's three service levels. *)
let stepped_timeline =
  let gib = 1024 * 1024 * 1024 in
  [| (0.0, 6 * gib); (40.0, 9 * gib); (80.0, 17 * gib) |]

let test_session_summaries_pinned () =
  let run ?(w = workload) ?(pauses = [| (30.0, 32.0); (70.0, 71.0) |]) profile
      resilient =
    let resilience =
      if resilient then Resilient.paper_defaults else Resilient.none
    in
    let gateway = if resilient then Gateway.degraded else Gateway.unbounded in
    pin
      (Resilient.run w ~profile ~resilience ~gateway ~pauses
         ~db_timeline:stepped_timeline ~seed:3)
  in
  (* At 5000 ops/s (and 4x that during the pause-spike windows), many
     events share a microsecond, so this summary also depends on the
     heap's pop order among equal keys: pushing the arrivals in reverse
     order changes it. *)
  Alcotest.(check string) "storm, resilient, dense"
    "storm req=65279 ok=51671 failed=13608 att=79724 \
     retries=13055 amp=0x1.38a5de8462e75p+0 \
     goodput=0x1.93aep+13 p50=0x1.cbc6a7ef9db23p-1 \
     p99=0x1.cfdf3b645a1cbp+8 p999=0x1.fef9db22d0e56p+8 \
     max=0x1.7ebc7526113d3p+9 timeouts=595 sheds=214 fast=25799 \
     drops=543 errors=411 hedge_wins=1245"
    (run
       ~w:{ workload with Client.duration_s = 4.0; ops_per_s = 5000.0 }
       ~pauses:[| (1.0, 1.5); (3.0, 3.2) |]
       Profile.storm true);
  List.iter
    (fun (profile, resilient, expected) ->
      Alcotest.(check string)
        (Printf.sprintf "%s, resilient %b" profile.Profile.name resilient)
        expected (run profile resilient))
    [
      (Profile.pause_spike, false,
        "pause-spike req=7160 ok=7160 failed=0 att=7160 \
         retries=0 amp=0x1p+0 goodput=0x1.dd55555555555p+5 \
         p50=0x1.0083126e978d5p+0 p99=0x1.8a3d70a3d70a4p+10 \
         p999=0x1.e666666666666p+10 max=0x1.ef42f1bbe132cp+10 \
         timeouts=0 sheds=0 fast=0 drops=0 errors=0 \
         hedge_wins=0");
      (Profile.pause_spike, true,
        "pause-spike req=7160 ok=6664 failed=496 att=8627 \
         retries=1432 amp=0x1.34738ebb10e04p+0 \
         goodput=0x1.bc44444444444p+5 \
         p50=0x1.f0a3d70a3d70ap-1 p99=0x1.9a9fbe76c8b44p+7 \
         p999=0x1.e24dd2f1a9fbep+8 max=0x1.f77bc107057a2p+8 \
         timeouts=96 sheds=0 fast=1867 drops=0 errors=0 \
         hedge_wins=0");
      (Profile.storm, false,
        "storm req=7160 ok=7041 failed=119 att=7160 retries=0 \
         amp=0x1p+0 goodput=0x1.d566666666666p+5 \
         p50=0x1.09374bc6a7efap+0 p99=0x1.8a3d70a3d70a4p+10 \
         p999=0x1.e666666666666p+10 max=0x1.ef3da5a02bd9cp+10 \
         timeouts=0 sheds=0 fast=0 drops=90 errors=29 \
         hedge_wins=0");
      (Profile.storm, true,
        "storm req=7160 ok=6631 failed=529 att=8802 \
         retries=1432 amp=0x1.3ab5586265418p+0 \
         goodput=0x1.ba11111111111p+5 \
         p50=0x1.0083126e978d5p+0 p99=0x1.428f5c28f5c29p+8 \
         p999=0x1.de353f7ced917p+8 max=0x1.53b245208c6ddp+9 \
         timeouts=184 sheds=0 fast=1811 drops=90 errors=39 \
         hedge_wins=165");
    ]

(* An event packs its request number and attempt number into one int;
   [run] rejects a session whose values would not fit. *)
let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let raises_naming what f =
  match f () with
  | _ -> Alcotest.failf "expected Invalid_argument naming %s" what
  | exception Invalid_argument msg ->
      Alcotest.(check bool) (msg ^ " names " ^ what) true (contains msg what)

let largest_max_attempts = (1 lsl 40) - 1

let test_session_packing_bounds () =
  let run w r =
    Resilient.run w ~profile:Profile.none ~resilience:r
      ~gateway:Gateway.unbounded ~pauses:[||] ~db_timeline:[||] ~seed:3
  in
  raises_naming "max_attempts" (fun () ->
      run workload
        { Resilient.paper_defaults with
          Resilient.max_attempts = largest_max_attempts + 1 });
  (* About five million arrivals; the request field holds 2^22. *)
  raises_naming "requests" (fun () ->
      run
        { workload with Client.duration_s = 5.0; ops_per_s = 1e6 }
        Resilient.none)

let test_session_largest_max_attempts () =
  (* Retries are bounded by the budget alone. *)
  let r =
    {
      Resilient.paper_defaults with
      Resilient.max_attempts = largest_max_attempts;
      retry_budget_pct = 100.0;
    }
  in
  let s =
    Gcperf_ycsb.Session.run
      ~resilience:(Gcperf_ycsb.Session.Resilience.Custom (r, Gateway.degraded))
      ~profile:Profile.storm workload
      {
        Gcperf_ycsb.Session.pauses = [| (30.0, 32.0); (70.0, 71.0) |];
        db_timeline = stepped_timeline;
      }
      ~seed:3
  in
  Alcotest.(check int) "every request resolves" s.Resilient.requests
    (s.Resilient.ok + s.Resilient.failed);
  Alcotest.(check bool) "attempts cover requests and retries" true
    (s.Resilient.attempts >= s.Resilient.requests + s.Resilient.retries);
  Alcotest.(check bool) "retries within the budget" true
    (s.Resilient.retries > 0 && s.Resilient.retries <= s.Resilient.requests)

(* --- the faults experiment ------------------------------------------ *)

let ci_grid = lazy (Exp_faults.run_scope ~scope:Gcperf.Scope.ci ~jobs:2 ())

let find r ~gc ~profile ~resilient =
  match
    List.find_opt
      (fun (s : Exp_faults.session) ->
        s.Exp_faults.gc = gc
        && s.Exp_faults.profile = profile
        && s.Exp_faults.resilient = resilient)
      (Exp_faults.sessions r)
  with
  | Some s -> s.Exp_faults.summary
  | None -> Alcotest.failf "session %s/%s missing" gc profile

let test_grid_shape () =
  let r = Lazy.force ci_grid in
  Alcotest.(check int) "one cell per collector"
    (List.length Exp_faults.collectors)
    (List.length r.Exp_faults.cells);
  Alcotest.(check int) "profiles x resilience sessions per cell"
    (2 * List.length Profile.all)
    (List.length (List.hd r.Exp_faults.cells).Exp_faults.sessions)

let test_grid_jobs_identical () =
  (* The determinism contract: the grid is byte-identical whether it
     runs sequentially or fanned out (CI re-checks jobs=4 via
     @check-identity). *)
  let r1 = Exp_faults.run_scope ~scope:Gcperf.Scope.ci ~jobs:1 () in
  let r2 = Lazy.force ci_grid in
  Alcotest.(check bool) "jobs=1 and jobs=2 agree" true
    (Exp_faults.sessions r1 = Exp_faults.sessions r2);
  let render r =
    Exp_faults.render
      (Exp_faults.to_artifact
         (Gcperf.Artifact.make ~name:"faults" ~title:"faults")
         r)
  in
  Alcotest.(check bool) "rendering agrees" true (render r1 = render r2)

let test_resilience_tames_pause_spike_tail () =
  (* The acceptance bar: under the pause-spike profile, the resilient
     stack must cut the p99.9 client latency for CMS and G1. *)
  let r = Lazy.force ci_grid in
  List.iter
    (fun gc ->
      let off = find r ~gc ~profile:"pause-spike" ~resilient:false in
      let on = find r ~gc ~profile:"pause-spike" ~resilient:true in
      Alcotest.(check bool)
        (gc ^ ": resilience improves p99.9 under pause spikes")
        true
        (on.Resilient.p999_ms < off.Resilient.p999_ms);
      Alcotest.(check bool) (gc ^ ": amplification is reported") true
        (on.Resilient.retry_amplification >= 1.0))
    [ "ConcMarkSweepGC"; "G1GC" ]

let test_goodput_survives_faults () =
  let r = Lazy.force ci_grid in
  List.iter
    (fun (s : Exp_faults.session) ->
      let m = s.Exp_faults.summary in
      if s.Exp_faults.resilient then
        Alcotest.(check bool)
          (s.Exp_faults.gc ^ "/" ^ s.Exp_faults.profile
         ^ ": resilient goodput stays near offered load")
          true
          (float_of_int m.Resilient.ok
          >= 0.97 *. float_of_int m.Resilient.requests))
    (Exp_faults.sessions r)

let () =
  Alcotest.run "fault"
    [
      ( "profile",
        [
          Alcotest.test_case "round trip" `Quick test_profile_round_trip;
          Alcotest.test_case "spellings" `Quick test_profile_spellings;
        ] );
      ( "injector",
        [
          Alcotest.test_case "deterministic" `Quick test_injector_deterministic;
          Alcotest.test_case "none passes" `Quick test_injector_none_passes;
          Alcotest.test_case "flaky faults" `Quick test_injector_flaky_faults;
          Alcotest.test_case "load spikes" `Quick test_load_multiplier_spikes;
        ] );
      ( "gateway",
        [
          Alcotest.test_case "unbounded never rejects" `Quick
            test_gateway_unbounded_never_rejects;
          Alcotest.test_case "pause stretches service" `Quick
            test_gateway_pause_stretches_service;
          Alcotest.test_case "sheds over capacity" `Quick
            test_gateway_sheds_over_capacity;
          Alcotest.test_case "fast-rejects during pause" `Quick
            test_gateway_fast_rejects_during_pause;
        ] );
      ( "session",
        [
          Alcotest.test_case "deterministic" `Quick test_session_deterministic;
          Alcotest.test_case "accounting" `Quick test_session_accounting;
          Alcotest.test_case "no resilience, no retries" `Quick
            test_session_without_resilience_never_retries;
          Alcotest.test_case "session summaries pinned" `Quick
            test_session_summaries_pinned;
          Alcotest.test_case "packing bounds" `Quick
            test_session_packing_bounds;
          Alcotest.test_case "largest max_attempts" `Quick
            test_session_largest_max_attempts;
          Alcotest.test_case "retries recover drops" `Quick
            test_session_retries_recover_drops;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "grid shape" `Quick test_grid_shape;
          Alcotest.test_case "jobs identity" `Quick test_grid_jobs_identical;
          Alcotest.test_case "pause-spike tail tamed" `Quick
            test_resilience_tames_pause_spike_tail;
          Alcotest.test_case "goodput survives" `Quick
            test_goodput_survives_faults;
        ] );
    ]
