(* gcperf: command-line front end for the GC performance study.

   `gcperf list` enumerates experiments, `gcperf run <id>` regenerates a
   table or figure of the paper (text, CSV or JSON), `gcperf trace
   <collector>` runs a benchmark with telemetry on and dumps its pause
   log plus percentile summaries, `gcperf bench <name>` runs a single
   DaCapo-like benchmark under a chosen collector, `gcperf tune
   <collector>` searches for sizes that meet a pause goal and prints the
   matching JVM flags, `gcperf suite` prints the benchmark descriptions,
   and `gcperf check-identity` diffs every experiment's ci-scope artifact
   against its committed golden. *)

open Cmdliner
module Telemetry = Gcperf_telemetry.Telemetry
module Sink = Gcperf_telemetry.Sink

let scope_arg =
  let doc =
    "Run budget: $(b,ci) (smoke-test scale, the goldens' scope), \
     $(b,bench) (intermediate) or $(b,full) (the paper's configuration)."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "scope"; "s" ] ~docv:"SCOPE" ~doc)

let resolve_scope scope =
  match scope with
  | None -> Gcperf.Scope.full
  | Some s -> (
      match Gcperf.Scope.of_string s with
      | Some scope -> scope
      | None ->
          Printf.eprintf "unknown scope %S; expected ci, bench or full\n" s;
          exit 1)

let out_arg =
  let doc = "Write the rendered artifact to $(docv) instead of stdout." in
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)

(* OCaml 5.1's [Max_domains] (caml/domain.h) on 64-bit hosts: a pool
   wider than this would fail inside [Domain.spawn] mid-run. *)
let max_jobs = 128

let jobs_arg =
  let doc =
    Printf.sprintf
      "Worker domains for the experiment's cell fan-out, 1..%d (default: \
       the machine's recommended domain count).  Results are \
       byte-identical for every value; $(b,--jobs 1) runs sequentially."
      max_jobs
  in
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 && n <= max_jobs -> Ok n
    | _ ->
        Error
          (`Msg
            (Printf.sprintf
               "must be an integer in 1..%d (OCaml's domain limit), got %S"
               max_jobs s))
  in
  let jobs = Arg.conv ~docv:"N" (parse, Format.pp_print_int) in
  Arg.(value & opt (some jobs) None & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let emit out text =
  match out with
  | None -> print_string text
  | Some path ->
      let oc = open_out path in
      output_string oc text;
      close_out oc;
      Printf.printf "wrote %s\n" path

let did_you_mean = Gcperf_util.Fuzzy.did_you_mean

(* Every user-supplied configuration goes through [Gc_config.validate]
   before it reaches the simulator, so a bad flag combination dies with
   the JVM flag to fix instead of an exception deep inside a run.
   [Gc_config.default] asserts young <= heap on its own; building through
   a thunk lets us turn that assertion into the same actionable error. *)
let validated build =
  match
    match build () with
    | config -> Gcperf_gc.Gc_config.validate config
    | exception Invalid_argument _ ->
        Error
          "young generation (-Xmn) must be smaller than the heap (-Xmx); \
           leave room for the old generation"
  with
  | Ok config -> config
  | Error msg ->
      Printf.eprintf "invalid configuration: %s\n" msg;
      exit 1

let resolve_collector name =
  match Gcperf_gc.Gc_config.kind_of_string name with
  | Some k -> k
  | None ->
      Printf.eprintf "unknown collector %S%s\n" name
        (did_you_mean ~candidates:Gcperf_gc.Gc_config.kind_names name);
      exit 1

let resolve_bench name =
  match Gcperf_dacapo.Suite.find name with
  | Some b -> b
  | None ->
      Printf.eprintf "unknown benchmark %S%s; try `gcperf suite`\n" name
        (did_you_mean ~candidates:Gcperf_dacapo.Suite.names name);
      exit 1

let resolve_fault_profile name =
  match Gcperf_fault.Profile.of_string name with
  | Some p -> p
  | None ->
      Printf.eprintf "unknown fault profile %S%s\n" name
        (did_you_mean ~candidates:Gcperf_fault.Profile.names name);
      exit 1

(* --- list ---------------------------------------------------------- *)

let list_cmd =
  let doc = "List the reproducible tables and figures." in
  let run () =
    print_endline "Experiments (paper artifact -> gcperf run <id>):";
    List.iter
      (fun (e : Gcperf.Experiment.t) ->
        Printf.printf "  %-10s %s\n" e.id e.title)
      Gcperf.Experiments.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

(* --- run ----------------------------------------------------------- *)

let format_arg =
  let doc = "Output format: $(b,text), $(b,csv) or $(b,json)." in
  Arg.(value & opt string "text" & info [ "format"; "f" ] ~docv:"FORMAT" ~doc)

let parse_format = function
  | "text" -> `Text
  | "csv" -> `Csv
  | "json" -> `Json
  | s ->
      Printf.eprintf "unknown format %S; expected text, csv or json\n" s;
      exit 1

let run_cmd =
  let doc = "Regenerate one table or figure of the study." in
  let id_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"EXPERIMENT"
          ~doc:"Experiment id (see $(b,gcperf list)).")
  in
  let run id scope format jobs out =
    let scope = resolve_scope scope in
    let format = parse_format format in
    match Gcperf.Experiments.find id with
    | None ->
        Printf.eprintf "unknown experiment %S%s; try `gcperf list`\n" id
          (did_you_mean ~candidates:Gcperf.Experiments.all_names id);
        exit 1
    | Some e ->
        let artifact = Gcperf.Experiment.artifact ~scope ?jobs e in
        emit out (Gcperf.Experiment.render e artifact format)
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run $ id_arg $ scope_arg $ format_arg $ jobs_arg $ out_arg)

(* --- trace --------------------------------------------------------- *)

let trace_cmd =
  let doc =
    "Run one benchmark with telemetry enabled and dump the GC trace: \
     one JSON line per pause with its per-phase breakdown, then a \
     percentile summary (p50/p90/p99/p99.9/max) per pause kind and a \
     time-to-safepoint summary."
  in
  let collector_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"COLLECTOR"
          ~doc:
            "Collector: serial, parnew, parallel, parallelold, cms, g1, \
             concurrent-regions (alias zgc, shenandoah) or journal-rc \
             (alias mo-gc); a \
             comma-separated list, or $(b,all).  With several collectors \
             the traced runs fan out over the worker pool, each section \
             is printed in collector order, and a merged percentile \
             summary over every collector's pauses closes the dump.")
  in
  let bench_arg =
    let doc = "DaCapo-like benchmark to drive the collector." in
    Arg.(value & opt string "xalan" & info [ "bench"; "b" ] ~docv:"NAME" ~doc)
  in
  let heap_arg =
    let doc = "Heap size in megabytes." in
    Arg.(value & opt int 16384 & info [ "heap" ] ~docv:"MB" ~doc)
  in
  let young_arg =
    let doc = "Young generation size in megabytes." in
    Arg.(value & opt int 5734 & info [ "young" ] ~docv:"MB" ~doc)
  in
  let iterations_arg =
    Arg.(value & opt int 5 & info [ "n"; "iterations" ] ~doc:"Iterations.")
  in
  let trace_format_arg =
    let doc =
      "Output: $(b,jsonl) (pauses + summaries), $(b,csv) (flat pause \
       rows), $(b,metrics) (gauge/counter series as CSV) or $(b,summary) \
       (one JSON percentile object)."
    in
    Arg.(value & opt string "jsonl" & info [ "format"; "f" ] ~docv:"FORMAT" ~doc)
  in
  let run collector bench heap young iterations format jobs out =
    let kinds =
      if collector = "all" then Gcperf.Exp_common.all_kinds
      else List.map resolve_collector (String.split_on_char ',' collector)
    in
    let b = resolve_bench bench in
    let render =
      match format with
      | "jsonl" -> fun log _ -> Sink.trace_jsonl log
      | "csv" -> fun log _ -> Sink.pauses_csv log
      | "metrics" -> fun _ telemetry -> Sink.metrics_csv telemetry
      | "summary" ->
          fun log _ -> Sink.summary_json (Sink.summarise log) ^ "\n"
      | s ->
          Printf.eprintf
            "unknown format %S; expected jsonl, csv, metrics or summary\n" s;
          exit 1
    in
    let mb = 1024 * 1024 in
    let machine = Gcperf_machine.Machine.paper_server () in
    (* Validate on the orchestrating domain, before any fan-out. *)
    let configs =
      List.map
        (fun kind ->
          ( kind,
            validated (fun () ->
                Gcperf_gc.Gc_config.default kind ~heap_bytes:(heap * mb)
                  ~young_bytes:(young * mb)) ))
        kinds
    in
    (* One traced run per collector; each cell owns its VM, its pause
       log and its telemetry registry, so the runs fan out over the pool
       and the per-cell dumps stay independent.  The dump renders the
       log the VM wrote, not [result.events]: a run that ran out of
       memory has no events, but its log keeps the pauses before. *)
    let jobs = Option.value jobs ~default:(Gcperf.Exp_common.default_jobs ()) in
    let traced =
      Gcperf.Exp_common.Pool.map_list ~jobs
        (fun (kind, gc) ->
          (* The registry is explicitly enabled here; everywhere else the
             process-wide default (off) applies, so experiments never pay
             for tracing they do not read. *)
          let telemetry = Telemetry.create ~enabled:true () in
          let r, log =
            Gcperf_dacapo.Harness.run_with_log ~telemetry ~iterations machine
              b ~gc ~system_gc:false ()
          in
          (kind, log, telemetry, r.Gcperf_dacapo.Harness.crashed))
        configs
    in
    List.iter
      (fun (_, _, _, crashed) ->
        if crashed then begin
          Printf.eprintf "benchmark %s crashes under the study's setup\n"
            bench;
          exit 1
        end)
      traced;
    match traced with
    | [ (_, log, telemetry, _) ] ->
        (* Single collector: exactly the historical dump. *)
        emit out (render log telemetry)
    | _ ->
        (* Several collectors: per-collector sections in request order,
           then one summary over every run's histograms, merged in
           deterministic cell order. *)
        let buf = Buffer.create 4096 in
        List.iter
          (fun (kind, log, telemetry, _) ->
            Buffer.add_string buf
              (Printf.sprintf "==== %s ====\n"
                 (Gcperf_gc.Gc_config.kind_to_string kind));
            Buffer.add_string buf (render log telemetry))
          traced;
        let merged =
          Sink.merged
            (List.map (fun (_, log, _, _) -> Sink.summarise log) traced)
        in
        Buffer.add_string buf "==== merged ====\n";
        Buffer.add_string buf (Sink.summary_json merged ^ "\n");
        emit out (Buffer.contents buf)
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(
      const run $ collector_arg $ bench_arg $ heap_arg $ young_arg
      $ iterations_arg $ trace_format_arg $ jobs_arg $ out_arg)

(* --- bench --------------------------------------------------------- *)

let bench_cmd =
  let doc = "Run one benchmark under a chosen collector and print its log." in
  let bench_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"BENCHMARK" ~doc:"DaCapo-like benchmark name.")
  in
  let gc_arg =
    let doc =
      "Collector: serial, parnew, parallel, parallelold, cms, g1, \
       concurrent-regions (alias zgc, shenandoah) or journal-rc (alias \
       mo-gc)."
    in
    Arg.(value & opt string "parallelold" & info [ "gc" ] ~doc)
  in
  let fold_jobs_arg =
    let doc =
      "Simulated journal-fold workers for the journal-rc collector \
       (mo-gc's fold is single-threaded; higher values relieve its \
       backpressure).  Scales the simulated fold rate only."
    in
    Arg.(value & opt int 1 & info [ "journal-fold-jobs" ] ~docv:"N" ~doc)
  in
  let heap_arg =
    let doc = "Heap size in megabytes (minimum = maximum, as in the study)." in
    Arg.(value & opt int 16384 & info [ "heap" ] ~docv:"MB" ~doc)
  in
  let young_arg =
    let doc = "Young generation size in megabytes." in
    Arg.(value & opt int 5734 & info [ "young" ] ~docv:"MB" ~doc)
  in
  let iterations_arg =
    Arg.(value & opt int 10 & info [ "n"; "iterations" ] ~doc:"Iterations.")
  in
  let sysgc_arg =
    Arg.(value & flag & info [ "system-gc" ] ~doc:"Force a full GC between iterations.")
  in
  let tlab_off_arg =
    Arg.(value & flag & info [ "no-tlab" ] ~doc:"Disable TLABs.")
  in
  let adaptive_arg =
    Arg.(
      value & flag
      & info [ "adaptive" ]
          ~doc:
            "Attach the adaptive sizing policy \
             ($(b,-XX:+UseAdaptiveSizePolicy)): the young generation, \
             survivor ratio and tenuring threshold follow the pause and \
             throughput goals instead of staying fixed.")
  in
  let pause_goal_arg =
    let doc =
      "Pause goal in milliseconds for $(b,--adaptive) \
       ($(b,-XX:MaxGCPauseMillis))."
    in
    Arg.(value & opt float 200.0 & info [ "pause-goal" ] ~docv:"MS" ~doc)
  in
  let verbose_arg =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print every GC event.")
  in
  let faults_arg =
    let doc =
      "After the run, replay its pause schedule through the fault \
       injector and the resilient client: $(docv) is a fault profile \
       (none, flaky-network, pause-spike, storm).  Prints goodput, \
       retry amplification and client tail latency with resilience off \
       and on."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "faults" ] ~docv:"PROFILE" ~doc)
  in
  let no_resilience_arg =
    Arg.(
      value & flag
      & info [ "no-resilience" ]
          ~doc:
            "With $(b,--faults): only run the pre-resilience stack \
             (naive client, unbounded server queue).")
  in
  let run bench gc heap young iterations system_gc no_tlab adaptive pause_goal
      fold_jobs verbose faults no_resilience =
    let kind = resolve_collector gc in
    let b = resolve_bench bench in
    (* Resolve up front so a typo dies before the benchmark runs. *)
    let fault_profile = Option.map resolve_fault_profile faults in
    let mb = 1024 * 1024 in
    let config =
      validated (fun () ->
          {
            (Gcperf_gc.Gc_config.default kind ~heap_bytes:(heap * mb)
               ~young_bytes:(young * mb))
            with
            Gcperf_gc.Gc_config.tlab = not no_tlab;
            adaptive;
            pause_goal_ms = pause_goal;
            journal_fold_jobs = fold_jobs;
          })
    in
    let machine = Gcperf_machine.Machine.paper_server () in
    let r =
      Gcperf_dacapo.Harness.run ~iterations machine b ~gc:config ~system_gc ()
    in
    if r.Gcperf_dacapo.Harness.crashed then print_endline "benchmark crashed"
    else begin
      Array.iteri
        (fun i s ->
          Printf.printf
            "iteration %2d: %8.3f s  (%d pauses, %.3f s paused, %d MB allocated)\n"
            (i + 1)
            s.Gcperf_workload.Mutator.duration_s
            s.Gcperf_workload.Mutator.pauses
            s.Gcperf_workload.Mutator.pause_s
            (s.Gcperf_workload.Mutator.allocated_bytes / mb))
        r.Gcperf_dacapo.Harness.iterations;
      Printf.printf "total: %.3f s   final iteration: %.3f s%s\n"
        r.Gcperf_dacapo.Harness.total_s r.Gcperf_dacapo.Harness.final_s
        (if r.Gcperf_dacapo.Harness.oom then "  [OOM]" else "");
      if verbose then
        List.iter
          (fun e ->
            Format.printf "%a@." Gcperf_sim.Gc_event.pp_event e)
          r.Gcperf_dacapo.Harness.events
      else begin
        let n = List.length r.Gcperf_dacapo.Harness.events in
        let total =
          List.fold_left
            (fun a e -> a +. (e.Gcperf_sim.Gc_event.duration_us /. 1e6))
            0.0 r.Gcperf_dacapo.Harness.events
        in
        Printf.printf "gc: %d pauses, %.3f s total pause time\n" n total
      end;
      match fault_profile with
      | None -> ()
      | Some profile ->
          (* Replay the run's pause schedule through the fault injector
             and the resilient client: the client-side view of the
             pauses just printed. *)
          let module R = Gcperf_ycsb.Resilient in
          let module Gw = Gcperf_kvstore.Gateway in
          let pauses =
            Array.of_list
              (List.map
                 (fun (e : Gcperf_sim.Gc_event.event) ->
                   ( e.Gcperf_sim.Gc_event.start_us /. 1e6,
                     (e.Gcperf_sim.Gc_event.start_us
                     +. e.Gcperf_sim.Gc_event.duration_us)
                     /. 1e6 ))
                 r.Gcperf_dacapo.Harness.events)
          in
          let workload =
            {
              Gcperf_ycsb.Client.paper_workload with
              Gcperf_ycsb.Client.duration_s =
                Float.max 1.0 r.Gcperf_dacapo.Harness.total_s;
            }
          in
          let session resilient =
            let resilience = if resilient then R.paper_defaults else R.none in
            let gateway = if resilient then Gw.degraded else Gw.unbounded in
            R.run workload ~profile ~resilience ~gateway ~pauses
              ~db_timeline:[||]
              ~seed:(Gcperf.Exp_common.seed + 131)
          in
          let print tag (m : R.summary) =
            Printf.printf
              "faults %-13s resilience %-3s goodput %8.2f op/s  amp %4.2f  \
               p99 %8.2f ms  p99.9 %8.2f ms  ok %d/%d  timeouts %d  sheds %d  \
               hedge-wins %d\n"
              m.R.profile tag m.R.goodput_ops_s m.R.retry_amplification
              m.R.p99_ms m.R.p999_ms m.R.ok m.R.requests m.R.timeouts
              (m.R.sheds + m.R.fast_rejects)
              m.R.hedge_wins
          in
          print "off" (session false);
          if not no_resilience then print "on" (session true)
    end
  in
  Cmd.v (Cmd.info "bench" ~doc)
    Term.(
      const run $ bench_arg $ gc_arg $ heap_arg $ young_arg $ iterations_arg
      $ sysgc_arg $ tlab_off_arg $ adaptive_arg $ pause_goal_arg
      $ fold_jobs_arg $ verbose_arg $ faults_arg $ no_resilience_arg)

(* --- tune ---------------------------------------------------------- *)

let tune_cmd =
  let doc =
    "Advise heap and young-generation sizes for a collector: search a \
     (heap, young) grid for the configuration that meets the pause goal \
     with the best throughput, refine it with the adaptive sizing \
     policy, and print the equivalent JVM flags."
  in
  let collector_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"COLLECTOR"
          ~doc:
            "Collector: serial, parnew, parallel, parallelold, cms, g1, \
             concurrent-regions or journal-rc.")
  in
  let bench_arg =
    let doc = "DaCapo-like benchmark to tune against." in
    Arg.(value & opt string "xalan" & info [ "bench"; "b" ] ~docv:"NAME" ~doc)
  in
  let pause_goal_arg =
    let doc = "Pause goal in milliseconds ($(b,-XX:MaxGCPauseMillis))." in
    Arg.(value & opt float 200.0 & info [ "pause-goal" ] ~docv:"MS" ~doc)
  in
  let run collector bench pause_goal scope jobs out =
    let scope = resolve_scope scope in
    let kind = resolve_collector collector in
    let b = resolve_bench bench in
    if pause_goal <= 0.0 then begin
      Printf.eprintf "pause goal must be positive (got %g ms)\n" pause_goal;
      exit 1
    end;
    let r =
      Gcperf.Tune.run_scope ~scope ?jobs ~pause_goal_ms:pause_goal ~bench:b
        kind
    in
    emit out (Gcperf.Tune.render r)
  in
  Cmd.v (Cmd.info "tune" ~doc)
    Term.(
      const run $ collector_arg $ bench_arg $ pause_goal_arg $ scope_arg
      $ jobs_arg $ out_arg)

(* --- suite --------------------------------------------------------- *)

let suite_cmd =
  let doc = "Describe the DaCapo-like benchmark suite." in
  let run () =
    List.iter
      (fun b ->
        let p = b.Gcperf_dacapo.Suite.profile in
        Printf.printf "%-10s %s%s\n" p.Gcperf_workload.Profile.name
          b.Gcperf_dacapo.Suite.description
          (if b.Gcperf_dacapo.Suite.crashes then " [crashes]" else ""))
      Gcperf_dacapo.Suite.all;
    Printf.printf "\nstable subset: %s\n"
      (String.concat ", " Gcperf_dacapo.Suite.stable_names)
  in
  Cmd.v (Cmd.info "suite" ~doc) Term.(const run $ const ())

(* --- all ----------------------------------------------------------- *)

let all_cmd =
  let doc = "Run every experiment and print all artifacts in order." in
  let run scope jobs =
    let scope = resolve_scope scope in
    (* Campaign siblings (fig1/fig2, fig5/table567) share one run via
       the campaign memo, so the full sweep costs no duplicate work. *)
    List.iter
      (fun (e : Gcperf.Experiment.t) ->
        Printf.printf "==== %s ====\n%s\n%!" e.id
          (e.text (Gcperf.Experiment.artifact ~scope ?jobs e)))
      Gcperf.Experiments.all
  in
  Cmd.v (Cmd.info "all" ~doc)
    Term.(const run $ scope_arg $ jobs_arg)

(* --- check-identity ------------------------------------------------ *)

let check_identity_cmd =
  let doc =
    "Render every experiment at ci scope and compare it byte for byte \
     with results/ci/<id>.txt (run from the repository root).  Also \
     fails on a file there that no experiment claims.  Exits non-zero \
     on any failure."
  in
  let run jobs =
    let experiments = Gcperf.Experiments.all in
    let failures = ref 0 in
    let fail name msg =
      incr failures;
      Printf.eprintf "FAIL %s: %s\n%!" name msg
    in
    List.iter
      (fun (e : Gcperf.Experiment.t) ->
        match
          Gcperf.Experiment.check_golden e
            (Gcperf.Experiment.artifact ~scope:Gcperf.Scope.ci ?jobs e)
        with
        | Ok () -> Printf.printf "ok %s\n%!" e.id
        | Error msg -> fail e.id msg)
      experiments;
    let dir = Gcperf.Experiment.golden_dir in
    let files = try Sys.readdir dir with Sys_error _ -> [||] in
    Array.sort compare files;
    Array.iter
      (fun f ->
        let claimed (e : Gcperf.Experiment.t) = e.id ^ ".txt" = f in
        if not (List.exists claimed experiments) then
          fail (Filename.concat dir f) "no experiment has this id")
      files;
    if !failures > 0 then begin
      Printf.eprintf "%d identity failure(s)\n" !failures;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "check-identity" ~doc)
    Term.(const run $ jobs_arg)

let main =
  let doc = "A multicore garbage-collector performance laboratory (PMAM'15)" in
  let info = Cmd.info "gcperf" ~version:"1.0.0" ~doc in
  Cmd.group info
    [
      list_cmd;
      run_cmd;
      trace_cmd;
      bench_cmd;
      tune_cmd;
      suite_cmd;
      all_cmd;
      check_identity_cmd;
    ]

let () = exit (Cmd.eval main)
