(* End-to-end benchmark of the simulator.

     e2e.exe --workload NAME|all [--seed N] [--seconds S] [--trace 0|1|FILE]
             [--json FILE] [--scope bench|ci] [--promote]

   Runs one workload of cells.ml as a closed batch, all cells due at
   once, checks every cell's result against the committed digests in
   bench/e2e/expected/, and prints each metric by name with its unit.
   The last line of standard output is a one-line JSON summary:
   end-to-end metrics for an untraced run, per-layer metrics for a
   traced one.  See README.md for the definitions. *)

module Pool = Gcperf_exec.Pool
module Scope = Gcperf.Scope
module Harness = Gcperf_dacapo.Harness
module Gc_event = Gcperf_sim.Gc_event
module Resilient = Gcperf_ycsb.Resilient
module Exp_faults = Gcperf.Exp_faults

let t_main = Ledger.now ()

let workload = ref ""
let seed = ref 42
let seconds = ref 0.0
let trace = ref "0"
let json_out = ref ""
let scope_name = ref "bench"
let promote = ref false
let setup_only = ref false

let specs =
  Arg.align
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " Cells.names ^ ", or all");
      ("--seed", Arg.Set_int seed, "N workload seed (default 42, the experiments' seed)");
      ( "--seconds",
        Arg.Set_float seconds,
        "S repeat the batch while another pass should end within S host seconds (default 0: one pass)" );
      ( "--trace",
        Arg.Set_string trace,
        "0|1|FILE 1 or FILE: traced run reporting per-layer metrics; FILE also receives the spans" );
      ("--json", Arg.Set_string json_out, "FILE also write the full report as JSON");
      ("--scope", Arg.Set_string scope_name, "bench|ci run budget (default bench; ci for smoke tests)");
      ("--promote", Arg.Set promote, " write the digests of this run as the expected ones");
      ("--setup-only", Arg.Set setup_only, " exit once set up (how setup_s times a cold start)");
    ]

let usage = "e2e.exe --workload NAME|all [options]"

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("e2e: " ^ s); exit 2) fmt

let traced () = !trace <> "0"

(* Arguments for re-running this executable on one workload. *)
let child_args ~workload ~trace ~json =
  Array.of_list
    ([ Sys.executable_name; "--workload"; workload; "--seed"; string_of_int !seed;
       "--seconds"; Printf.sprintf "%h" !seconds; "--trace"; trace; "--scope"; !scope_name ]
    @ (if json = "" then [] else [ "--json"; json ])
    @ if !promote then [ "--promote" ] else [])

let per_workload file name =
  if file = "" || file = "0" || file = "1" then file
  else Filename.remove_extension file ^ "-" ^ name ^ Filename.extension file

(* --workload all: one process per workload, so each reports its own
   peak RSS. *)
let run_all () =
  let status =
    List.fold_left
      (fun worst name ->
        let args =
          child_args ~workload:name ~trace:(per_workload !trace name)
            ~json:(per_workload !json_out name)
        in
        let pid = Unix.create_process args.(0) args Unix.stdin Unix.stdout Unix.stderr in
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> worst
        | _, Unix.WEXITED c -> max worst c
        | _ -> max worst 1)
      0 Cells.names
  in
  exit status

(* --- statistics ---------------------------------------------------------- *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0 else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let percentile p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0 else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let ratio a b = if b = 0.0 then 0.0 else a /. b

let peak_rss_mb () =
  let from_proc =
    try
      In_channel.with_open_text "/proc/self/status" (fun ic ->
          let rec find () =
            match In_channel.input_line ic with
            | None -> None
            | Some l ->
                if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
                  Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
                      Some (float_of_int kb /. 1024.0))
                else find ()
          in
          find ())
    with Sys_error _ -> None
  in
  match from_proc with
  | Some mb -> mb
  | None ->
      float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1048576.0

let cpu_now () =
  let t = Unix.times () in
  t.tms_utime +. t.tms_stime

(* --- expected digests ------------------------------------------------------ *)

let expected_path name = Printf.sprintf "bench/e2e/expected/%s-%d.txt" name !seed

let load_expected name =
  let path = expected_path name in
  if !scope_name <> "bench" || not (Sys.file_exists path) then None
  else
    let tbl = Hashtbl.create 256 in
    In_channel.with_open_text path (fun ic ->
        In_channel.input_all ic |> String.split_on_char '\n'
        |> List.iter (fun line ->
               match String.split_on_char ' ' (String.trim line) with
               | [ label; hex ] when line.[0] <> '#' -> Hashtbl.replace tbl label hex
               | _ -> ()));
    Some tbl

(* --- one pass over a workload ------------------------------------------------ *)

type cell_out = {
  label : string;
  outcome : (Cells.result * float * string, string) result;
      (** result, virtual seconds simulated, digest; or why it failed *)
  ledger : Ledger.t;
  start : float;
  stop : float;
  domain : int;
}

type pass = {
  outs : cell_out list;
  batches : (float * float * int) list;  (** start, stop, workers *)
  wall : float;
  cpu : float;
}

let run_cell ~traced (id, (c : Cells.cell)) =
  let ledger = Ledger.create ~traced ~cell:id in
  let start = Ledger.now () in
  let outcome =
    match
      Ledger.span ledger ~layer:"pool" "pool.cell" (fun () ->
          let r, sim_s = c.run ledger in
          Ledger.span ledger ~layer:"bench" "bench.check" (fun () ->
              match Cells.check r with
              | Ok () -> Ok (r, sim_s, Cells.digest r)
              | Error what -> Error what))
    with
    | v -> v
    | exception e -> Error (Printexc.to_string e)
  in
  { label = c.label; outcome; ledger; start; stop = Ledger.now (); domain = (Domain.self () :> int) }

(* [first] is the first batch when set-up already built it. *)
let run_pass ~traced (w : Cells.workload) first =
  let t0 = Ledger.now () and c0 = cpu_now () in
  let rec go prev next_id outs batches = function
    | [] -> (outs, batches)
    | build :: rest -> (
        let cells =
          match (prev, first) with None, Some b -> b | _ -> build (Option.value prev ~default:[||])
        in
        let b0 = Ledger.now () in
        let batch =
          Pool.map_cells ~jobs:w.jobs (run_cell ~traced) (Array.mapi (fun i c -> (next_id + i, c)) cells)
        in
        let outs = outs @ Array.to_list batch in
        let batches = batches @ [ (b0, Ledger.now (), max 1 (min w.jobs (Array.length cells))) ] in
        (* A later batch is built from every result of this one. *)
        match Array.map (fun o -> match o.outcome with Ok (r, _, _) -> r | Error e -> failwith e) batch with
        | results -> go (Some results) (next_id + Array.length cells) outs batches rest
        | exception Failure _ -> (outs, batches))
  in
  let outs, batches = go None 0 [] [] w.batches in
  { outs; batches; wall = Ledger.now () -. t0; cpu = cpu_now () -. c0 }

(* Failed cells of a pass, with the reason; checks digests when the
   seed has committed ones. *)
let failures expected outs =
  let mismatch o =
    match (o.outcome, expected) with
    | Error why, _ -> Some why
    | Ok _, None -> None
    | Ok (_, _, d), Some tbl -> (
        match Hashtbl.find_opt tbl o.label with
        | Some hex when hex = d -> None
        | Some _ -> Some "digest mismatch"
        | None -> Some "no expected digest")
  in
  let per_cell = List.filter_map (fun o -> Option.map (fun why -> (o.label, why)) (mismatch o)) outs in
  match expected with
  | Some tbl when Hashtbl.length tbl <> List.length outs ->
      ("(expected file)", Printf.sprintf "lists %d cells, the run has %d" (Hashtbl.length tbl) (List.length outs))
      :: per_cell
  | _ -> per_cell

let run_digest outs =
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          (List.map (fun o -> match o.outcome with Ok (_, _, d) -> o.label ^ " " ^ d | Error _ -> o.label ^ " -") outs)))

(* --- per-layer metrics ------------------------------------------------------- *)

let gc_keys = [ "g1"; "cms"; "parallelold"; "concurrent-regions"; "journal-rc-fj1"; "journal-rc-fj4" ]

let layer_metrics ~(pass : pass) ~untraced_wall =
  let spans = Ledger.self_times (List.concat_map (fun o -> Ledger.spans o.ledger) pass.outs) in
  let self name =
    List.fold_left (fun a ((s : Ledger.span), t) -> if s.name = name then a +. t else a) 0.0 spans
  in
  let calls name =
    float_of_int (List.length (List.filter (fun ((s : Ledger.span), _) -> s.name = name) spans))
  in
  let counts = Hashtbl.create 32 in
  List.iter
    (fun o ->
      List.iter
        (fun (k, v) ->
          Hashtbl.replace counts k (v +. Option.value ~default:0.0 (Hashtbl.find_opt counts k)))
        (Ledger.counts o.ledger))
    pass.outs;
  let count k = Option.value ~default:0.0 (Hashtbl.find_opt counts k) in
  let results = List.filter_map (fun o -> match o.outcome with Ok (r, _, _) -> Some r | Error _ -> None) pass.outs in
  let sum f = List.fold_left (fun a r -> a +. f r) 0.0 results in
  let events f =
    sum (function
      | Cells.Dacapo r -> List.fold_left (fun a e -> a +. f e) 0.0 r.Harness.events
      | _ -> 0.0)
  in
  let sessions =
    List.concat_map
      (function
        | Cells.Pauseless c -> [ c.summary ]
        | Cells.Faults c -> List.map (fun (s : Exp_faults.session) -> s.summary) c.sessions
        | _ -> [])
      results
  in
  let ssum f = List.fold_left (fun a (m : Resilient.summary) -> a +. float_of_int (f m)) 0.0 sessions in
  let csum f =
    sum (function Cells.Cluster c -> float_of_int (f c.summary) | _ -> 0.0)
  in
  let alloc_mb = count "runtime.sim_alloc_bytes" /. 1048576.0 in
  let serve_s k = self ("server.run." ^ k) in
  let vm_driving =
    self "mutator.create" +. self "mutator.run_iteration" +. self "vm.system_gc"
    +. List.fold_left (fun a k -> a +. serve_s k +. self ("server.replay_commitlog." ^ k)) 0.0 gc_keys
  in
  let session_s = self "session.run.off" +. self "session.run.on" in
  let coordinator_s =
    List.fold_left (fun a f -> a +. self (Printf.sprintf "coordinator.run.fanout%d" f)) 0.0 [ 1; 8; 32 ]
  in
  let durations = List.map (fun o -> o.stop -. o.start) pass.outs in
  let busy = List.fold_left ( +. ) 0.0 durations in
  let capacity = List.fold_left (fun a (b0, b1, n) -> a +. (float_of_int n *. (b1 -. b0))) 0.0 pass.batches in
  (* Time from the first worker running out of cells to the batch's
     end, summed over batches. *)
  let straggler =
    List.fold_left
      (fun a (b0, b1, workers) ->
        let inside = List.filter (fun o -> o.start >= b0 && o.stop <= b1) pass.outs in
        let last = Hashtbl.create 4 in
        List.iter
          (fun o -> Hashtbl.replace last o.domain (max o.stop (Option.value ~default:b0 (Hashtbl.find_opt last o.domain))))
          inside;
        let first_idle =
          if Hashtbl.length last < workers then b0 else Hashtbl.fold (fun _ t m -> min t m) last b1
        in
        if workers <= 1 then a else a +. (b1 -. first_idle))
      0.0 pass.batches
  in
  let per_gc =
    List.concat_map
      (fun k ->
        [
          ("kvstore.replay_s." ^ k, "s", self ("server.replay_commitlog." ^ k));
          ("kvstore.serve_s." ^ k, "s", serve_s k);
          ("kvstore.host_us_per_op." ^ k, "us", 1e6 *. ratio (serve_s k) (count ("kvstore.serve_ops." ^ k)));
          ("gc.pauses." ^ k, "count", count ("gc.pauses." ^ k));
          ("gc.full." ^ k, "count", count ("gc.full." ^ k));
        ])
      gc_keys
  in
  [
    ("workload.mutator_create_s", "s", self "mutator.create");
    ("workload.run_iteration_s", "s", self "mutator.run_iteration");
    ("workload.iterations", "count", sum (function Cells.Dacapo r -> float_of_int (Array.length r.iterations) | _ -> 0.0));
    ("runtime.vm_create_s", "s", self "vm.create");
    ("runtime.sim_alloc_mb", "MB", alloc_mb);
    ("runtime.host_us_per_sim_mb", "us", 1e6 *. ratio vm_driving alloc_mb);
    ("runtime.system_gc_s", "s", self "vm.system_gc");
    ("runtime.system_gc_calls", "count", calls "vm.system_gc");
    ("runtime.system_gc_us_per_call", "us", 1e6 *. ratio (self "vm.system_gc") (calls "vm.system_gc"));
    ("gc.pauses_young", "count", events (fun e -> match e.kind with Gc_event.Young | Mixed -> 1.0 | _ -> 0.0));
    ("gc.pauses_full", "count", events (fun e -> if Gc_event.is_full e.kind then 1.0 else 0.0));
    ("gc.pause_sim_s", "s", events (fun e -> e.duration_us /. 1e6));
    ( "gc.ooms",
      "count",
      sum (function
        | Cells.Dacapo r -> if r.oom then 1.0 else 0.0
        | Pauseless c -> if c.server.oom then 1.0 else 0.0
        | Faults c -> if c.server.oom then 1.0 else 0.0
        | Timeline t -> if t.oom then 1.0 else 0.0
        | Cluster _ -> 0.0) );
    ("heap.invariant_failures", "count", count "heap.invariant_failures");
  ]
  @ per_gc
  @ [
      ("kvstore.operations", "count", count "kvstore.operations");
      ("kvstore.flushes", "count", count "kvstore.flushes");
      ("ycsb.session_s.off", "s", self "session.run.off");
      ("ycsb.session_s.on", "s", self "session.run.on");
      ("ycsb.sessions", "count", float_of_int (List.length sessions));
      ("ycsb.requests", "count", ssum (fun m -> m.requests));
      ("ycsb.host_us_per_request", "us", 1e6 *. ratio session_s (ssum (fun m -> m.requests)));
      ("ycsb.ok_frac", "ratio", ratio (ssum (fun m -> m.ok)) (ssum (fun m -> m.requests)));
      ("ycsb.retry_amplification", "ratio", ratio (ssum (fun m -> m.attempts)) (ssum (fun m -> m.requests)));
      ("fault.timeouts", "count", ssum (fun m -> m.timeouts));
      ("kvstore.sheds", "count", ssum (fun m -> m.sheds + m.fast_rejects));
      ("cluster.node_generate_s", "s", self "node.generate");
      ("cluster.nodes", "count", calls "node.generate");
      ("cluster.host_s_per_node", "s", ratio (self "node.generate") (calls "node.generate"));
      ("cluster.ring_create_s", "s", self "ring.create");
      ("cluster.coordinator_s.fanout1", "s", self "coordinator.run.fanout1");
      ("cluster.coordinator_s.fanout8", "s", self "coordinator.run.fanout8");
      ("cluster.coordinator_s.fanout32", "s", self "coordinator.run.fanout32");
      ("cluster.subops", "count", csum (fun m -> m.subops));
      ("cluster.sends", "count", csum (fun m -> m.sends));
      ("cluster.host_us_per_subop", "us", 1e6 *. ratio coordinator_s (csum (fun m -> m.subops)));
      ("cluster.sends_per_subop", "ratio", ratio (csum (fun m -> m.sends)) (csum (fun m -> m.subops)));
      ("cluster.hedge_win_frac", "ratio", ratio (csum (fun m -> m.hedge_wins)) (csum (fun m -> m.hedges)));
      ("exec.cells", "count", float_of_int (List.length pass.outs));
      ("exec.busy_s", "s", busy);
      ("exec.idle_frac", "ratio", 1.0 -. ratio busy capacity);
      ("exec.straggler_s", "s", straggler);
      ("exec.cell_p50_ms", "ms", 1e3 *. percentile 0.5 durations);
      ("exec.cell_p90_ms", "ms", 1e3 *. percentile 0.9 durations);
      ("bench.check_s", "s", self "bench.check");
      ( "trace.self_s_per_wall_s",
        "ratio",
        ratio (List.fold_left (fun a (_, t) -> a +. t) 0.0 spans) pass.wall );
      ("telemetry.trace_overhead_pct", "%", 100.0 *. ratio (pass.wall -. untraced_wall) untraced_wall);
    ]

(* --- output ----------------------------------------------------------------- *)

let num x = Printf.sprintf "%.17g" x

let metrics_json ms =
  "{"
  ^ String.concat ", "
      (List.map (fun (n, u, v) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (num v) u) ms)
  ^ "}"

let write_spans path outs =
  let spans = Ledger.self_times (List.concat_map (fun o -> Ledger.spans o.ledger) outs) in
  let labels = Hashtbl.create 64 in
  List.iter (fun o -> Hashtbl.replace labels (Ledger.cell o.ledger) o.label) outs;
  Out_channel.with_open_text path (fun oc ->
      output_string oc "[\n";
      List.iteri
        (fun i ((s : Ledger.span), self) ->
          Printf.fprintf oc
            "%s{\"name\": %S, \"layer\": %S, \"cell\": %d, \"cell_label\": %S, \"id\": %d, \"parent\": %d, \"start_s\": %s, \"end_s\": %s, \"self_s\": %s}"
            (if i = 0 then "" else ",\n")
            s.name s.layer s.cell
            (Option.value ~default:"" (Hashtbl.find_opt labels s.cell))
            s.id s.parent (num (s.start -. t_main)) (num (s.stop -. t_main)) (num self))
        spans;
      output_string oc "\n]\n")

(* Set-up time as a user pays it: process start, library
   initialisation and the benchmark's own set-up, up to where the first
   cell would be dispatched. *)
let cold_start name =
  let args = Array.append (child_args ~workload:name ~trace:"0" ~json:"") [| "--setup-only" |] in
  let t = Ledger.now () in
  let pid = Unix.create_process args.(0) args Unix.stdin Unix.stdout Unix.stderr in
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> die "set-up of %s failed" name);
  Ledger.now () -. t

(* A traced run compares itself against an untraced run of the same
   workload in a fresh process: the difference is the tracing overhead,
   and equal digests show that tracing did not perturb the simulation. *)
let untraced_reference name =
  let args = child_args ~workload:name ~trace:"0" ~json:"" in
  let ic = Unix.open_process_args_in args.(0) args in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> die "untraced reference run of %s failed" name);
  let field key =
    List.find_map
      (fun l ->
        match String.split_on_char ' ' l with k :: v :: _ when k = key -> Some v | _ -> None)
      lines
  in
  match (field "wall_s", field "run_digest") with
  | Some w, Some d -> (float_of_string w, d)
  | _ -> die "untraced reference run of %s printed no wall_s/run_digest" name

let () =
  Arg.parse specs (fun a -> die "unexpected argument %S" a) usage;
  let scope =
    match Scope.of_string !scope_name with
    | Some s when !scope_name = "bench" || !scope_name = "ci" -> s
    | _ -> die "unknown scope %S; expected bench or ci" !scope_name
  in
  if !workload = "all" then run_all ();
  let name = !workload in
  if not (List.mem name Cells.names) then
    die "unknown workload %S; expected one of %s, or all" name (String.concat ", " Cells.names);
  if !promote && (traced () || !scope_name <> "bench") then
    die "--promote needs an untraced run at bench scope";
  (* Set-up: load the expected digests and build the workload's first
     batch of cells. *)
  let setup () =
    let expected = if !promote then None else load_expected name in
    let w = Option.get (Cells.make ~scope ~seed:!seed name) in
    Gcperf_heap.Obj_store.set_default_gc_domains w.gc_jobs;
    (expected, w, (List.hd w.batches) [||])
  in
  if !setup_only then (ignore (setup ()); exit 0);
  let setup_s = median (List.init 21 (fun _ -> cold_start name)) in
  let reference = if traced () then Some (untraced_reference name) else None in
  let expected, w, first = setup () in
  (* One traced pass; untraced passes while the next one is expected to
     end within --seconds of the first dispatch, and at least one. *)
  let t_dispatch = Ledger.now () in
  let rec passes acc =
    let p = run_pass ~traced:(traced ()) w (if acc = [] then Some first else None) in
    let acc = p :: acc in
    if traced () || Ledger.now () -. t_dispatch +. p.wall > !seconds then List.rev acc
    else passes acc
  in
  let all = passes [] in
  let first_pass = List.hd all in
  let failed = List.concat_map (fun p -> failures expected p.outs) all in
  let digests = List.map (fun p -> run_digest p.outs) all in
  let digest = List.hd digests in
  let unstable = List.exists (( <> ) digest) digests in
  let perturbed = match reference with Some (_, d) -> d <> digest | None -> false in
  List.iter (fun (l, why) -> Printf.eprintf "e2e: %s: cell %s failed: %s\n" name l why) failed;
  if unstable then Printf.eprintf "e2e: %s: passes disagree on the digests\n" name;
  if perturbed then Printf.eprintf "e2e: %s: tracing changed the digests\n" name;
  let attempted = List.fold_left (fun a p -> a + List.length p.outs) 0 all in
  let n_failed = min attempted (List.length failed + if unstable || perturbed then 1 else 0) in
  let correct = n_failed = 0 in
  let wall = median (List.map (fun p -> p.wall) all) in
  let sim_s =
    List.fold_left (fun a o -> match o.outcome with Ok (_, s, _) -> a +. s | Error _ -> a) 0.0 first_pass.outs
  in
  let end_to_end =
    [
      ("setup_s", "s", setup_s);
      ("wall_s", "s", wall);
      ("cpu_s", "s", median (List.map (fun p -> p.cpu) all));
      ("sim_s_per_host_s", "ratio", sim_s /. wall);
      ("peak_rss_mb", "MB", peak_rss_mb ());
    ]
  in
  let failed_frac = float_of_int n_failed /. float_of_int (max 1 attempted) in
  let layers =
    match reference with
    | Some (untraced_wall, _) -> layer_metrics ~pass:first_pass ~untraced_wall
    | None -> []
  in
  if !promote && correct then begin
    let path = expected_path name in
    Out_channel.with_open_text path (fun oc ->
        Printf.fprintf oc "# %s, seed %d, bench scope: MD5 of each cell's canonical result (canon.ml)\n" name !seed;
        List.iter
          (fun o -> match o.outcome with Ok (_, _, d) -> Printf.fprintf oc "%s %s\n" o.label d | Error _ -> ())
          first_pass.outs);
    Printf.eprintf "e2e: wrote %s\n" path
  end;
  (match !trace with "0" | "1" -> () | path -> write_spans path first_pass.outs);
  Printf.printf "workload %s seed %d scope %s jobs %d gc_jobs %d passes %d cells %d digests %s\n" name !seed
    !scope_name w.jobs w.gc_jobs (List.length all) (List.length first_pass.outs)
    (match expected with Some _ -> "checked" | None -> "not committed for this seed");
  Printf.printf "run_digest %s\n" digest;
  List.iter (fun (n, u, v) -> Printf.printf "%s %s %s\n" n (num v) u) (end_to_end @ layers);
  Printf.printf "failed_frac %s ratio\n" (num failed_frac);
  if !json_out <> "" then
    Out_channel.with_open_text !json_out (fun oc ->
        Printf.fprintf oc
          "{\"workload\": %S, \"seed\": %d, \"scope\": %S, \"jobs\": %d, \"gc_jobs\": %d, \"passes\": %d, \"run_digest\": %S, \"correct\": %b, \"attempted\": %d, \"failed\": %d, \"failed_frac\": %s, \"metrics\": %s}\n"
          name !seed !scope_name w.jobs w.gc_jobs (List.length all) digest correct attempted n_failed
          (num failed_frac)
          (metrics_json (end_to_end @ layers)));
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n" correct attempted
    n_failed
    (metrics_json (if traced () then layers else end_to_end));
  exit (if correct then 0 else 1)
