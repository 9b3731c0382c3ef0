(* The benchmark re-composes library runners from their layers (see
   cells.ml).  This test runs those compositions at ci scope and seed 42
   and checks that they equal the library's own results, which pins the
   seed formulas and constants cells.ml duplicates.  The pauseless
   workload's ConcurrentRegions cell is left out: it alone takes ~7 s at
   ci scope, and its server half is the same code as the cells checked
   here. *)

module Harness = Gcperf_dacapo.Harness
module Gc_config = Gcperf_gc.Gc_config
module Scope = Gcperf.Scope
module Exp_server = Gcperf.Exp_server
module Exp_faults = Gcperf.Exp_faults
module Exp_cluster = Gcperf.Exp_cluster

let scope = Scope.ci
let seed = 42
let failures = ref 0

let expect what ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") what;
  if not ok then incr failures

let ledger () = Ledger.create ~traced:false ~cell:0

let run_batches (w : Cells.workload) =
  List.fold_left
    (fun prev build -> Array.map (fun (c : Cells.cell) -> fst (c.run (ledger ()))) (build prev))
    [||] w.batches

let () =
  let w = Cells.dacapo_sweep ~scope ~seed in
  let machine = Gcperf.Exp_common.machine () in
  let cells = (List.hd w.batches) [||] in
  let same =
    Array.for_all
      (fun (c : Cells.cell) ->
        match fst (c.run (ledger ())) with
        | Cells.Dacapo mine -> (
            match Gcperf_dacapo.Suite.find mine.bench_name with
            | None -> false
            | Some bench ->
                let kind = Option.get (Gc_config.kind_of_string mine.gc_name) in
                let lib =
                  Harness.run
                    ~seed:(seed + (37 * Cells.kind_index Gc_config.all_kinds kind))
                    ~iterations:(Scope.scaled scope 10) machine bench
                    ~gc:(Gcperf.Exp_common.config kind ~heap:mine.heap_bytes ~young:mine.young_bytes ())
                    ~system_gc:true ()
                in
                compare mine lib = 0)
        | _ -> false)
      cells
  in
  expect (Printf.sprintf "decomposed Harness.run = Harness.run (%d cells)" (Array.length cells)) same;
  (* Exp_faults runs its servers through Exp_server.run_server_config,
     so its cells also check the decomposed server run for CMS, G1 and
     ParallelOld. *)
  let mine = run_batches (Cells.server_faults ~scope ~seed) in
  let lib = Exp_faults.run_scope ~scope ~jobs:1 () in
  List.iter2
    (fun m (l : Exp_faults.cell) ->
      match m with
      | Cells.Faults m ->
          expect ("decomposed server run = Exp_server.run_server_config, " ^ l.gc)
            (compare m.server l.server = 0);
          expect ("server-faults sessions = Exp_faults.run_scope, " ^ l.gc)
            (compare m l = 0)
      | _ -> expect "server-faults cell kind" false)
    (Array.to_list mine) lib.cells;
  let label = "JournalRCGC/fj4" in
  let config = { (Cells.server_gc Gc_config.Journal_rc) with Gc_config.journal_fold_jobs = 4 } in
  expect ("decomposed server run = Exp_server.run_server_config, " ^ label)
    (compare
       (Cells.server (ledger ()) ~scope ~seed ~label config)
       (Exp_server.run_server_config ~scope ~label ~config ~stress:true ~hours:2.0 ())
    = 0);
  let mine = run_batches (Cells.cluster_fanout ~scope ~seed) in
  let lib = Exp_cluster.run_scope ~scope ~jobs:1 () in
  expect "cluster-fanout cells = Exp_cluster.run_scope"
    (compare (Array.to_list mine) (List.map (fun c -> Cells.Cluster c) lib.cells) = 0);
  if !failures > 0 then exit 1
