module Client = Gcperf_ycsb.Client
module Resilient = Gcperf_ycsb.Resilient
module Session = Gcperf_ycsb.Session
module Profile = Gcperf_fault.Profile
module Gc_config = Gcperf_gc.Gc_config
module Table = Gcperf_report.Table

type session = {
  gc : string;
  profile : string;
  resilient : bool;
  summary : Resilient.summary;
}

type cell = {
  gc : string;
  server : Exp_server.server_run;
  sessions : session list;
}

type result = { scope : Scope.t; cells : cell list }

(* CMS and G1 are the collectors the paper recommends for the
   client-server deployment; ParallelOld is the baseline whose full
   collections make the fault layer's job hardest. *)
let collectors = [ Gc_config.Cms; Gc_config.G1; Gc_config.ParallelOld ]

let session_seed = Exp_common.seed + 131

let one ~scope kind =
  let server =
    Exp_server.run_server_scope ~scope ~kind ~stress:true ~hours:2.0 ()
  in
  let workload =
    let w = Client.paper_workload in
    {
      w with
      Client.duration_s = server.Exp_server.duration_s;
      ops_per_s = Scope.rate scope w.Client.ops_per_s;
    }
  in
  let sessions =
    List.concat_map
      (fun profile ->
        List.map
          (fun resilient ->
            (* The typed resilience level replaces the hand-paired
               (resilience record, gateway config) the old API needed. *)
            let resilience =
              if resilient then Session.Resilience.Paper_defaults
              else Session.Resilience.Off
            in
            let summary =
              Session.run ~resilience ~profile
                ~collector:server.Exp_server.gc workload
                {
                  Session.pauses = server.Exp_server.intervals;
                  db_timeline = server.Exp_server.db_timeline;
                }
                ~seed:session_seed
            in
            {
              gc = server.Exp_server.gc;
              profile = profile.Profile.name;
              resilient;
              summary;
            })
          [ false; true ])
      Profile.all
  in
  { gc = server.Exp_server.gc; server; sessions }

let run_scope ~scope ?(jobs = Exp_common.default_jobs ()) () =
  (* One cell per collector: the server run and every fault session it
     feeds live inside the cell, so the fan-out stays byte-identical
     for any worker count. *)
  let cells =
    Exp_common.Pool.map_list ~jobs (fun kind -> one ~scope kind) collectors
  in
  { scope; cells }

let sessions r = List.concat_map (fun c -> c.sessions) r.cells

let render r =
  let t =
    Table.create
      ~columns:
        [
          ("GC", Table.Left);
          ("profile", Table.Left);
          ("resilience", Table.Left);
          ("goodput(op/s)", Table.Right);
          ("amp", Table.Right);
          ("p50(ms)", Table.Right);
          ("p99(ms)", Table.Right);
          ("p99.9(ms)", Table.Right);
          ("timeout", Table.Right);
          ("shed", Table.Right);
          ("hedge-win", Table.Right);
        ]
  in
  List.iter
    (fun c ->
      Table.add_separator t;
      List.iter
        (fun s ->
          let m = s.summary in
          Table.add_row t
            [
              s.gc;
              s.profile;
              (if s.resilient then "on" else "off");
              Table.cell_f m.Resilient.goodput_ops_s;
              Table.cell_f m.Resilient.retry_amplification;
              Table.cell_f m.Resilient.p50_ms;
              Table.cell_f m.Resilient.p99_ms;
              Table.cell_f m.Resilient.p999_ms;
              string_of_int m.Resilient.timeouts;
              string_of_int (m.Resilient.sheds + m.Resilient.fast_rejects);
              string_of_int m.Resilient.hedge_wins;
            ])
        c.sessions)
    r.cells;
  let requests =
    match sessions r with [] -> 0 | s :: _ -> s.summary.Resilient.requests
  in
  Printf.sprintf
    "Fault injection: goodput, retry amplification and client tail latency\n\
     under injected faults, with graceful degradation + client resilience\n\
     off and on (%d requests per session, seed %d)\n\n\
     %s"
    requests session_seed (Table.render t)
