module Client = Gcperf_ycsb.Client
module Resilient = Gcperf_ycsb.Resilient
module Session = Gcperf_ycsb.Session
module Profile = Gcperf_fault.Profile
module Gc_config = Gcperf_gc.Gc_config
module Table = Gcperf_report.Table

(* Pauseless collector family on the stressed key-value server.

   The paper's recommended collectors (CMS, G1) still stop the world for
   whole collections; this experiment runs the concurrent region
   collector and the journaled-RC collector — whose only pauses are
   sub-millisecond flips — on the same stress workload, against a G1
   baseline, then replays the pause-spike client session (resilience
   off) over each server's pause intervals.  The headline: the pauseless
   family trades mutator throughput (barrier/journaling tax, fold
   backpressure) for a flat client tail, and the journal fold is a
   single-worker bottleneck that [--journal-fold-jobs] relieves. *)

type cell = {
  gc : string;  (** display label, e.g. "JournalRCGC/fj4" *)
  heap_gb : int;
  fold_jobs : int;  (** 0 for non-journal collectors *)
  server : Exp_server.server_run;
  summary : Resilient.summary;  (** pause-spike profile, resilience off *)
}

type result = { scope : Scope.t; cells : cell list }

let session_seed = Exp_common.seed + 173

(* 64 GB first so the ci scope's single grid point keeps the paper's
   deployment size. *)
let heap_grid_gb = [ 64; 48 ]

(* (kind, fold_jobs, label); fold_jobs only reaches the config for the
   journal collector.  G1 anchors the throughput/pause trade-off. *)
let variants =
  [
    (Gc_config.G1, 0, "G1");
    (Gc_config.Concurrent_regions, 0, "ConcurrentRegionsGC");
    (Gc_config.Journal_rc, 1, "JournalRCGC/fj1");
    (Gc_config.Journal_rc, 2, "JournalRCGC/fj2");
    (Gc_config.Journal_rc, 4, "JournalRCGC/fj4");
  ]

let one ~scope (heap_gb, (kind, fold_jobs, label)) =
  let base =
    Gc_config.default kind
      ~heap_bytes:(Exp_common.gb heap_gb)
      ~young_bytes:(Exp_common.gb 12)
  in
  let config =
    if fold_jobs > 0 then
      { base with Gc_config.journal_fold_jobs = fold_jobs }
    else base
  in
  let server =
    Exp_server.run_server_config ~scope ~label ~config ~stress:true ~hours:2.0
      ()
  in
  let workload =
    let w = Client.paper_workload in
    {
      w with
      Client.duration_s = server.Exp_server.duration_s;
      ops_per_s = Scope.rate scope w.Client.ops_per_s;
    }
  in
  let summary =
    Session.run ~resilience:Session.Resilience.Off ~profile:Profile.pause_spike
      ~collector:label workload
      {
        Session.pauses = server.Exp_server.intervals;
        db_timeline = server.Exp_server.db_timeline;
      }
      ~seed:session_seed
  in
  { gc = label; heap_gb; fold_jobs; server; summary }

let run_scope ~scope ?(jobs = Exp_common.default_jobs ()) () =
  (* One self-contained cell per (heap, variant) pair: each owns its VM,
     server and client session, so the fan-out is byte-identical at any
     worker count. *)
  let cells =
    Exp_common.Pool.map_list ~jobs
      (fun c -> one ~scope c)
      (List.concat_map
         (fun h -> List.map (fun v -> (h, v)) variants)
         (Scope.grid scope heap_grid_gb))
  in
  { scope; cells }

let render r =
  let t =
    Table.create
      ~columns:
        [
          ("GC", Table.Left);
          ("heap(GB)", Table.Right);
          ("duration(s)", Table.Right);
          ("#pauses", Table.Right);
          ("max pause(s)", Table.Right);
          ("full", Table.Right);
          ("goodput(op/s)", Table.Right);
          ("p50(ms)", Table.Right);
          ("p99(ms)", Table.Right);
          ("p99.9(ms)", Table.Right);
        ]
  in
  let last_heap = ref (-1) in
  List.iter
    (fun c ->
      if c.heap_gb <> !last_heap then begin
        last_heap := c.heap_gb;
        Table.add_separator t
      end;
      let s = c.server in
      let m = c.summary in
      Table.add_row t
        [
          c.gc ^ (if s.Exp_server.oom then " [OOM]" else "");
          string_of_int c.heap_gb;
          Table.cell_f ~decimals:0 s.Exp_server.duration_s;
          string_of_int (Array.length s.Exp_server.pauses);
          Table.cell_f s.Exp_server.max_pause_s;
          string_of_int s.Exp_server.full_count;
          Table.cell_f m.Resilient.goodput_ops_s;
          Table.cell_f m.Resilient.p50_ms;
          Table.cell_f m.Resilient.p99_ms;
          Table.cell_f m.Resilient.p999_ms;
        ])
    r.cells;
  Printf.sprintf
    "Pauseless collector family on the stressed key-value server:\n\
     concurrent region collector (load barriers, sub-ms flips) and\n\
     journaled-RC collector (fold jobs 1/2/4) against a G1 baseline;\n\
     client tail from the pause-spike session, resilience off\n\
     (duration is wall time for the same work: lower = more throughput;\n\
     seed %d)\n\n\
     %s"
    session_seed (Table.render t)
