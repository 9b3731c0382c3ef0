module Vm = Gcperf_runtime.Vm
module Server = Gcperf_kvstore.Server
module Gateway = Gcperf_kvstore.Gateway
module Gc_event = Gcperf_sim.Gc_event
module Gc_config = Gcperf_gc.Gc_config
module Injector = Gcperf_fault.Injector
module Profile = Gcperf_fault.Profile

type timeline = {
  collector : string;
  node_seed : int;
  duration_s : float;
  intervals : (float * float) array;
  db_timeline : (float * int) array;
  pause_fraction : float;
  oom : bool;
}

let generate machine ~gc ~duration_s ~ops_per_s ~read_frac ~preload_bytes
    ~seed =
  let vm = Vm.create machine gc ~seed in
  (* A ring node is a saturating store like the paper's stressed
     Cassandra: nothing flushes, the memtable only grows.  Each node
     holds one shard of the dataset, hence the caller-scaled preload. *)
  let config = Server.stress_config ~heap_bytes:gc.Gc_config.heap_bytes in
  let server = Server.create vm config ~seed:(seed + 1) in
  let oom = ref false in
  (try
     Server.replay_commitlog server ~target_bytes:preload_bytes;
     Server.run server ~duration_s ~ops_per_s ~read_frac ~insert_frac:0.02
   with Gcperf_gc.Gc_ctx.Out_of_memory _ -> oom := true);
  let events = Vm.events vm in
  let intervals = Gc_event.intervals events in
  let served_s = Vm.now_s vm in
  let paused_s =
    Array.fold_left (fun a (s, e) -> a +. (e -. s)) 0.0 intervals
  in
  {
    collector = Gc_config.kind_to_string gc.Gc_config.kind;
    node_seed = seed;
    duration_s = served_s;
    intervals;
    db_timeline = Server.db_size_timeline server;
    pause_fraction = (if served_s > 0.0 then paused_s /. served_s else 0.0);
    oom = !oom;
  }

type t = {
  id : int;
  timeline : timeline;
  injector : Injector.t;
  gateway : Gateway.t;
  mutable hints : int;
}

let create ~id timeline ~profile ~gateway ~seed =
  {
    id;
    timeline;
    injector =
      Injector.create ~profile ~seed ~pauses:timeline.intervals;
    gateway = Gateway.create gateway ~pauses:timeline.intervals;
    hints = 0;
  }

let timeline t = t.timeline
let injector t = t.injector
let gateway t = t.gateway
let record_hint t = t.hints <- t.hints + 1
let hints t = t.hints

(* Index of the last interval starting at or before [s]; -1 if none. *)
let interval_before intervals s =
  let n = Array.length intervals in
  let lo = ref (-1) and hi = ref (n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if fst intervals.(mid) <= s then lo := mid else hi := mid - 1
  done;
  !lo

let paused_at t s =
  let i = interval_before t.timeline.intervals s in
  i >= 0 && s < snd t.timeline.intervals.(i)

let crosses_pause t ~start_s ~end_s =
  let intervals = t.timeline.intervals in
  let n = Array.length intervals in
  let i = interval_before intervals start_s in
  (* Either the window starts inside interval i, or some later interval
     begins before the window ends. *)
  (i >= 0 && start_s < snd intervals.(i))
  || (i + 1 < n && fst intervals.(i + 1) < end_s)
