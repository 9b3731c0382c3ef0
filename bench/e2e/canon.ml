(* Canonical text form of simulated results, for the correctness digests.

   Every field is written in declaration order; floats use [%h], the
   exact hexadecimal form, so two results digest equal iff they are
   bit-identical.  [Marshal] is avoided on purpose: its output depends
   on physical sharing, which a simulator-only change may alter without
   changing any value. *)

module Gc_event = Gcperf_sim.Gc_event
module Mutator = Gcperf_workload.Mutator
module Harness = Gcperf_dacapo.Harness
module Resilient = Gcperf_ycsb.Resilient
module Node = Gcperf_cluster.Node
module Coordinator = Gcperf_cluster.Coordinator
module Exp_server = Gcperf.Exp_server

let i b x = Printf.bprintf b "%d;" x
let f b x = Printf.bprintf b "%h;" x
let s b x = Printf.bprintf b "%S;" x
let bool b x = Buffer.add_string b (if x then "t;" else "f;")
let pairs b a = Array.iter (fun (x, y) -> f b x; f b y) a; Buffer.add_char b '|'

let event b (e : Gc_event.event) =
  f b e.start_us;
  f b e.duration_us;
  s b (Gc_event.pause_kind_to_string e.kind);
  s b e.collector;
  s b e.reason;
  i b e.young_before;
  i b e.young_after;
  i b e.old_before;
  i b e.old_after;
  i b e.promoted

let iteration b (it : Mutator.iteration_stats) =
  i b it.index;
  f b it.duration_s;
  i b it.allocated_bytes;
  i b it.pauses;
  f b it.pause_s

let harness b (r : Harness.result) =
  s b r.bench_name;
  s b r.gc_name;
  i b r.heap_bytes;
  i b r.young_bytes;
  bool b r.tlab;
  bool b r.system_gc;
  bool b r.crashed;
  bool b r.oom;
  Array.iter (iteration b) r.iterations;
  f b r.total_s;
  f b r.final_s;
  List.iter (event b) r.events

let server b (r : Exp_server.server_run) =
  s b r.gc;
  s b r.config_name;
  f b r.duration_s;
  pairs b r.pauses;
  pairs b r.intervals;
  Array.iter (fun (t, n) -> f b t; i b n) r.db_timeline;
  f b r.young_max_s;
  f b r.full_max_s;
  i b r.full_count;
  f b r.max_pause_s;
  bool b r.oom

let session b (m : Resilient.summary) =
  s b m.profile;
  i b m.requests;
  i b m.ok;
  i b m.failed;
  i b m.attempts;
  i b m.retries;
  f b m.retry_amplification;
  f b m.goodput_ops_s;
  f b m.p50_ms;
  f b m.p99_ms;
  f b m.p999_ms;
  f b m.max_ms;
  i b m.timeouts;
  i b m.sheds;
  i b m.fast_rejects;
  i b m.drops;
  i b m.errors;
  i b m.hedge_wins

let timeline b (t : Node.timeline) =
  s b t.collector;
  i b t.node_seed;
  f b t.duration_s;
  pairs b t.intervals;
  Array.iter (fun (x, n) -> f b x; i b n) t.db_timeline;
  f b t.pause_fraction;
  bool b t.oom

let coordinator b (m : Coordinator.summary) =
  List.iter (i b)
    [
      m.requests; m.ok; m.failed; m.reads; m.updates; m.subops; m.sends;
      m.hedges; m.hedge_wins; m.hints; m.sheds; m.errors; m.drops;
      m.timeouts; m.pause_intersected;
    ];
  f b m.pause_intersection_pct;
  i b m.max_inflight;
  List.iter (f b) [ m.goodput_ops_s; m.p50_ms; m.p99_ms; m.p999_ms; m.max_ms ]

let digest write x =
  let b = Buffer.create 4096 in
  write b x;
  Digest.to_hex (Digest.string (Buffer.contents b))
