module Prng = Gcperf_util.Prng
module Vec = Gcperf_util.Vec
module Heapq = Gcperf_util.Heapq
module Histogram = Gcperf_telemetry.Histogram
module Injector = Gcperf_fault.Injector
module Profile = Gcperf_fault.Profile
module Gateway = Gcperf_kvstore.Gateway
module Client = Gcperf_ycsb.Client
module Session = Gcperf_ycsb.Session

type config = {
  workload : Client.workload;
  resilience : Session.Resilience.t;
  fanout : int;
  keyspace : int;
  replication : int;
  hedge : bool;
  hinted_handoff : bool;
  profile : Profile.t;
}

let default =
  {
    workload =
      {
        Client.paper_workload with
        Client.read_frac = 0.95;
        ops_per_s = 75.0;
        duration_s = 1800.0;
      };
    resilience = Session.Resilience.Off;
    fanout = 8;
    keyspace = 4_000_000;
    replication = 3;
    hedge = false;
    hinted_handoff = true;
    profile = Profile.none;
  }

(* YCSB's Zipf skew over the keyspace. *)
let zipf_theta = 0.99

(* Read-one / write-two: a read needs one replica, a write two acks. *)
let read_quorum = 1
let write_quorum = 2

type summary = {
  requests : int;
  ok : int;
  failed : int;
  reads : int;
  updates : int;
  subops : int;
  sends : int;
  hedges : int;
  hedge_wins : int;
  hints : int;
  sheds : int;
  errors : int;
  drops : int;
  timeouts : int;
  pause_intersected : int;
  pause_intersection_pct : float;
  max_inflight : int;
  goodput_ops_s : float;
  p50_ms : float;
  p99_ms : float;
  p999_ms : float;
  max_ms : float;
}

(* A request is a batch of sub-operations; a sub-operation is a chain of
   replica sends.  [remaining] counts the responses the sub-operation
   still needs (read quorum, or W acks of a write), [live] the sends in
   flight that could still provide one. *)
type req = {
  arrival_s : float;
  kind : Client.op_kind;
  mutable pending_subs : int;
  mutable crossed : bool;
  mutable failed : bool;
}

type sub = {
  parent : req;
  key : int;
  reps : int array;  (* routing order: replicas, then handoff targets *)
  mutable remaining : int;
  mutable live : int;
  mutable next_replica : int;
  mutable resolved : bool;
}

type ev =
  | Start of req
  | Sub_ok of sub * bool  (* a required response arrived; was it a hedge? *)
  | Sub_fail of sub * string
  | Hedge_fire of sub

type session = {
  c : config;
  ring : Ring.t;
  nodes : Node.t array;
  prng : Prng.t;
  heap : ev Heapq.t;
  latencies : Histogram.t;
  timeout_ms : float;
  hedge_ms : float;
  mutable ok : int;
  mutable failed : int;
  mutable reads : int;
  mutable updates : int;
  mutable subops : int;
  mutable sends : int;
  mutable hedges : int;
  mutable hedge_wins : int;
  mutable errors : int;
  mutable drops : int;
  mutable timeouts : int;
  mutable pause_intersected : int;
  mutable inflight : int;
  mutable max_inflight : int;
}

let us s = int_of_float (s *. 1e6)
let reject_cost_ms = 0.2

let service_ms sess (node : Node.t) kind t =
  let w = sess.c.workload in
  let base =
    match kind with
    | Client.Read ->
        let db = Client.db_bytes_at (Node.timeline node).Node.db_timeline t in
        w.Client.read_base_ms
        +. (w.Client.read_step_ms *. float_of_int (db / w.Client.read_step_bytes))
    | Client.Update -> w.Client.update_base_ms
  in
  if w.Client.jitter_sigma <= 0.0 then base
  else
    base
    *. Prng.lognormal sess.prng
         ~mu:(-.(w.Client.jitter_sigma *. w.Client.jitter_sigma) /. 2.0)
         ~sigma:w.Client.jitter_sigma

(* One replica send, resolved synchronously at issue time [t] (the
   gateway stretches service across the node's pauses; the injector may
   delay, drop or error the response).  Returns when the coordinator
   hears back — [Ok completion] or [Error (detection, cause)] — and
   flags the request if the send overlapped a stop-the-world window. *)
let send sess (req : req) (node : Node.t) kind t =
  sess.sends <- sess.sends + 1;
  let inj = Node.injector node in
  Injector.advance_to inj t;
  let fault = Injector.outcome inj in
  match fault with
  | Injector.Error ->
      sess.errors <- sess.errors + 1;
      Error (t +. (reject_cost_ms /. 1e3), "error")
  | Injector.Pass | Injector.Delay _ | Injector.Drop -> (
      let service = service_ms sess node kind t in
      match Gateway.offer (Node.gateway node) ~now_s:t ~service_ms:service with
      | Gateway.Shed | Gateway.Fast_rejected ->
          Error (t +. (reject_cost_ms /. 1e3), "shed")
      | Gateway.Served { wait_ms = _; finish_s } -> (
          let extra_ms =
            match fault with Injector.Delay d -> d | _ -> 0.0
          in
          let resp_s = finish_s +. (extra_ms /. 1e3) in
          if Node.crosses_pause node ~start_s:t ~end_s:resp_s then
            req.crossed <- true;
          match fault with
          | Injector.Drop ->
              sess.drops <- sess.drops + 1;
              if Float.is_finite sess.timeout_ms then begin
                sess.timeouts <- sess.timeouts + 1;
                Error (t +. (sess.timeout_ms /. 1e3), "timeout")
              end
              else
                (* No timeout to detect the loss: the coordinator only
                   notices when the response should have arrived. *)
                Error (resp_s, "drop")
          | _ -> Ok resp_s))

let finalize sess (req : req) t =
  sess.inflight <- sess.inflight - 1;
  if req.failed then sess.failed <- sess.failed + 1
  else begin
    sess.ok <- sess.ok + 1;
    Histogram.record sess.latencies ((t -. req.arrival_s) *. 1e3)
  end;
  if req.crossed then sess.pause_intersected <- sess.pause_intersected + 1

let resolve_sub sess (sub : sub) t =
  sub.resolved <- true;
  let req = sub.parent in
  req.pending_subs <- req.pending_subs - 1;
  if req.pending_subs = 0 then finalize sess req t

(* Issue one send of a sub-operation chain and schedule its outcome. *)
let issue sess (sub : sub) node_id kind ~hedge t =
  sub.live <- sub.live + 1;
  match send sess sub.parent sess.nodes.(node_id) kind t with
  | Ok c -> Heapq.push sess.heap (us c) (Sub_ok (sub, hedge))
  | Error (f, cause) -> Heapq.push sess.heap (us f) (Sub_fail (sub, cause))

(* One sub-operation out of quorum reach fails the whole request; its
   sibling sub-operations still drain normally and the request counts
   as failed when the last of them resolves. *)
let sub_failed sess (sub : sub) t =
  sub.parent.failed <- true;
  resolve_sub sess sub t

(* A write replica caught mid-pause (or inside a fault-profile load
   window) hands its copy to the next healthy successor, which stores a
   hint (Dynamo's sloppy quorum): the ack comes from the hint holder,
   masking the paused replica. *)
let write_target sess (sub : sub) replica t =
  let node = sess.nodes.(replica) in
  if
    sess.c.hinted_handoff
    && (Node.paused_at node t
       || Injector.load_multiplier (Node.injector node) t > 1.0)
  then
    match
      Ring.successor sess.ring ~key:sub.key ~avoid:(fun n ->
          Node.paused_at sess.nodes.(n) t)
    with
    | Some h ->
        Node.record_hint sess.nodes.(h);
        h
    | None -> replica
  else replica

let start_request sess (req : req) t =
  sess.inflight <- sess.inflight + 1;
  if sess.inflight > sess.max_inflight then
    sess.max_inflight <- sess.inflight;
  match req.kind with
  | Client.Read ->
      sess.reads <- sess.reads + 1;
      req.pending_subs <- sess.c.fanout;
      for _ = 1 to sess.c.fanout do
        sess.subops <- sess.subops + 1;
        let key = Prng.zipf sess.prng ~n:sess.c.keyspace ~theta:zipf_theta in
        let reps = Ring.replicas sess.ring ~key in
        let q = Int.min read_quorum (Array.length reps) in
        let sub =
          {
            parent = req;
            key;
            reps;
            remaining = q;
            live = 0;
            next_replica = q;
            resolved = false;
          }
        in
        for i = 0 to q - 1 do
          issue sess sub reps.(i) Client.Read ~hedge:false t
        done;
        if sess.c.hedge && q = 1 && sess.hedge_ms > 0.0 then
          Heapq.push sess.heap
            (us (t +. (sess.hedge_ms /. 1e3)))
            (Hedge_fire sub)
      done
  | Client.Update ->
      sess.updates <- sess.updates + 1;
      req.pending_subs <- 1;
      sess.subops <- sess.subops + 1;
      let key = Prng.zipf sess.prng ~n:sess.c.keyspace ~theta:zipf_theta in
      let reps = Ring.replicas sess.ring ~key in
      let r = Int.min sess.c.replication (Array.length reps) in
      let w = Int.min write_quorum r in
      let sub =
        {
          parent = req;
          key;
          reps;
          remaining = w;
          live = 0;
          next_replica = r;
          resolved = false;
        }
      in
      for i = 0 to r - 1 do
        issue sess sub (write_target sess sub reps.(i) t) Client.Update
          ~hedge:false t
      done

let process sess ev t =
  match ev with
  | Start req -> start_request sess req t
  | Sub_ok (sub, hedged) ->
      sub.live <- sub.live - 1;
      if not sub.resolved then begin
        sub.remaining <- sub.remaining - 1;
        if hedged && sub.remaining = 0 then
          sess.hedge_wins <- sess.hedge_wins + 1;
        if sub.remaining = 0 then resolve_sub sess sub t
      end
  | Sub_fail (sub, _cause) ->
      sub.live <- sub.live - 1;
      if not sub.resolved then begin
        if sub.next_replica < Array.length sub.reps then begin
          let target = sub.reps.(sub.next_replica) in
          sub.next_replica <- sub.next_replica + 1;
          issue sess sub target sub.parent.kind ~hedge:false t
        end
        else if sub.live < sub.remaining then
          (* Even if every in-flight send succeeds the quorum is out of
             reach: the sub-operation — and the request — has failed. *)
          sub_failed sess sub t
      end
  | Hedge_fire sub ->
      if (not sub.resolved) && sub.next_replica < Array.length sub.reps then begin
        sess.hedges <- sess.hedges + 1;
        let target = sub.reps.(sub.next_replica) in
        sub.next_replica <- sub.next_replica + 1;
        issue sess sub target Client.Read ~hedge:true t
      end

let run c ~ring ~nodes ~seed =
  if Array.length nodes <> Ring.nodes ring then
    invalid_arg "Coordinator.run: one Node.t per ring node required";
  let r = Session.Resilience.client c.resilience in
  let sess =
    {
      c;
      ring;
      nodes;
      prng = Prng.create seed;
      heap = Heapq.create ();
      latencies = Histogram.create ();
      timeout_ms = r.Gcperf_ycsb.Resilient.timeout_ms;
      hedge_ms = r.Gcperf_ycsb.Resilient.hedge_ms;
      ok = 0;
      failed = 0;
      reads = 0;
      updates = 0;
      subops = 0;
      sends = 0;
      hedges = 0;
      hedge_wins = 0;
      errors = 0;
      drops = 0;
      timeouts = 0;
      pause_intersected = 0;
      inflight = 0;
      max_inflight = 0;
    }
  in
  let w = c.workload in
  (* Open-loop Poisson arrivals: the aggregate stream of the client
     population.  Generated up front, so the arrival schedule is fixed
     before any event-order draws happen. *)
  let reqs = Vec.create () in
  let t = ref 0.0 in
  let continue = ref true in
  while !continue do
    t := !t +. Prng.exponential sess.prng (1.0 /. w.Client.ops_per_s);
    if !t < w.Client.duration_s then
      Vec.push reqs
        {
          arrival_s = !t;
          kind =
            (if Prng.chance sess.prng w.Client.read_frac then Client.Read
             else Client.Update);
          pending_subs = 0;
          crossed = false;
          failed = false;
        }
    else continue := false
  done;
  Vec.iter
    (fun req -> Heapq.push sess.heap (us req.arrival_s) (Start req))
    reqs;
  let rec drain () =
    match Heapq.pop sess.heap with
    | None -> ()
    | Some (t_us, ev) ->
        process sess ev (float_of_int t_us /. 1e6);
        drain ()
  in
  drain ();
  let requests = Vec.length reqs in
  let sheds =
    Array.fold_left
      (fun a n -> a + Gateway.sheds (Node.gateway n) + Gateway.fast_rejects (Node.gateway n))
      0 nodes
  in
  let hints = Array.fold_left (fun a n -> a + Node.hints n) 0 nodes in
  {
    requests;
    ok = sess.ok;
    failed = sess.failed;
    reads = sess.reads;
    updates = sess.updates;
    subops = sess.subops;
    sends = sess.sends;
    hedges = sess.hedges;
    hedge_wins = sess.hedge_wins;
    hints;
    sheds;
    errors = sess.errors;
    drops = sess.drops;
    timeouts = sess.timeouts;
    pause_intersected = sess.pause_intersected;
    pause_intersection_pct =
      (if requests = 0 then 0.0
       else 100.0 *. float_of_int sess.pause_intersected /. float_of_int requests);
    max_inflight = sess.max_inflight;
    goodput_ops_s =
      (if w.Client.duration_s <= 0.0 then 0.0
       else float_of_int sess.ok /. w.Client.duration_s);
    p50_ms = Histogram.percentile sess.latencies 50.0;
    p99_ms = Histogram.percentile sess.latencies 99.0;
    p999_ms = Histogram.percentile sess.latencies 99.9;
    max_ms = Histogram.max sess.latencies;
  }
