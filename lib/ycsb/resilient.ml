module Prng = Gcperf_util.Prng
module Vec = Gcperf_util.Vec
module Heapq = Gcperf_util.Heapq
module Injector = Gcperf_fault.Injector
module Gateway = Gcperf_kvstore.Gateway
module Histogram = Gcperf_telemetry.Histogram

type resilience = {
  timeout_ms : float;
  max_attempts : int;
  backoff_base_ms : float;
  backoff_cap_ms : float;
  backoff_jitter : float;
  retry_budget_pct : float;
  hedge_ms : float;
}

let none =
  {
    timeout_ms = infinity;
    max_attempts = 1;
    backoff_base_ms = 0.0;
    backoff_cap_ms = 0.0;
    backoff_jitter = 0.0;
    retry_budget_pct = 0.0;
    hedge_ms = 0.0;
  }

let paper_defaults =
  {
    timeout_ms = 250.0;
    max_attempts = 4;
    backoff_base_ms = 50.0;
    backoff_cap_ms = 1000.0;
    backoff_jitter = 0.5;
    retry_budget_pct = 20.0;
    hedge_ms = 20.0;
  }

type summary = {
  profile : string;
  requests : int;
  ok : int;
  failed : int;
  attempts : int;
  retries : int;
  retry_amplification : float;
  goodput_ops_s : float;
  p50_ms : float;
  p99_ms : float;
  p999_ms : float;
  max_ms : float;
  timeouts : int;
  sheds : int;
  fast_rejects : int;
  drops : int;
  errors : int;
  hedge_wins : int;
}

(* Per-request state.  [primary] holds a hedged read's first-attempt
   result while the hedge is in flight. *)
type req = {
  arrival_s : float;
  kind : Client.op_kind;
  mutable attempts : int;
  mutable done_ : bool;
  mutable ok : bool;
  mutable primary : primary_result;
}

and primary_result =
  | No_primary
  | Primary_ok of float  (* response completion time, seconds *)
  | Primary_failed of float * string  (* detection time, cause *)

type ev = Attempt of req * int | Hedge of req

(* One attempt either completes at an absolute time or is detected as
   failed at an absolute time with a cause. *)
type attempt_result = Success of float | Failed of float * string

type session = {
  w : Client.workload;
  r : resilience;
  inj : Injector.t;
  gw : Gateway.t;
  prng : Prng.t;
  heap : ev Heapq.t;
  latencies : Histogram.t;  (* successful requests, ms *)
  mutable attempts : int;
  mutable retries : int;
  mutable retry_budget : int;
  mutable ok : int;
  mutable failed : int;
  mutable timeouts : int;
  mutable drops : int;
  mutable errors : int;
  mutable hedge_wins : int;
}

let us s = int_of_float (s *. 1e6)

(* Base service time: the same model as Client.run — reads step up with
   the database size, updates are flat log appends — with the same
   log-normal jitter. *)
let service_ms sess ~db_timeline (req : req) at_s =
  let base =
    match req.kind with
    | Client.Read ->
        let db = Client.db_bytes_at db_timeline at_s in
        sess.w.Client.read_base_ms
        +. (sess.w.Client.read_step_ms
            *. float_of_int (db / sess.w.Client.read_step_bytes))
    | Client.Update -> sess.w.Client.update_base_ms
  in
  if sess.w.Client.jitter_sigma <= 0.0 then base
  else
    base
    *. Prng.lognormal sess.prng
         ~mu:(-.(sess.w.Client.jitter_sigma *. sess.w.Client.jitter_sigma)
             /. 2.0)
         ~sigma:sess.w.Client.jitter_sigma

(* Issue one attempt at [t]: consult the injector, then the gateway,
   then apply the client-side timeout.  Failure times are when the
   CLIENT learns of the failure (immediately for errors and rejections,
   at the timeout for lost or too-slow responses). *)
let attempt sess ~db_timeline (req : req) t =
  sess.attempts <- sess.attempts + 1;
  req.attempts <- req.attempts + 1;
  Injector.advance_to sess.inj t;
  let fault = Injector.outcome sess.inj in
  let reject_cost_ms = 0.2 in
  match fault with
  | Injector.Error ->
      sess.errors <- sess.errors + 1;
      Failed (t +. (reject_cost_ms /. 1e3), "error")
  | Injector.Pass | Injector.Delay _ | Injector.Drop -> (
      let service = service_ms sess ~db_timeline req t in
      match Gateway.offer sess.gw ~now_s:t ~service_ms:service with
      | Gateway.Shed ->
          Failed (t +. (reject_cost_ms /. 1e3), "shed")
      | Gateway.Fast_rejected ->
          Failed (t +. (reject_cost_ms /. 1e3), "fast-reject")
      | Gateway.Served { wait_ms = _; finish_s } -> (
          let extra_ms =
            match fault with Injector.Delay d -> d | _ -> 0.0
          in
          let resp_s = finish_s +. (extra_ms /. 1e3) in
          match fault with
          | Injector.Drop ->
              (* The server did the work; the response never arrives.
                 With a timeout the client notices; without one the
                 request is simply lost. *)
              sess.drops <- sess.drops + 1;
              if Float.is_finite sess.r.timeout_ms then begin
                sess.timeouts <- sess.timeouts + 1;
                Failed (t +. (sess.r.timeout_ms /. 1e3), "timeout")
              end
              else Failed (t, "drop")
          | _ ->
              let lat_ms = (resp_s -. t) *. 1e3 in
              if
                Float.is_finite sess.r.timeout_ms
                && lat_ms > sess.r.timeout_ms
              then begin
                sess.timeouts <- sess.timeouts + 1;
                Failed (t +. (sess.r.timeout_ms /. 1e3), "timeout")
              end
              else Success resp_s))

let finalize_success sess (req : req) ~complete_s ~hedge_won =
  req.done_ <- true;
  req.ok <- true;
  sess.ok <- sess.ok + 1;
  let lat_ms = (complete_s -. req.arrival_s) *. 1e3 in
  Histogram.record sess.latencies lat_ms;
  if hedge_won then sess.hedge_wins <- sess.hedge_wins + 1

let finalize_failure sess (req : req) = begin
  req.done_ <- true;
  req.ok <- false;
  sess.failed <- sess.failed + 1
end

(* Failure detected at [fail_s] after [used] attempts: retry if the
   policy, the per-request attempt cap and the global budget all allow
   it.  A ["drop"] cause means the client never detected the failure
   (no timeout), so there is nothing to react to. *)
let maybe_retry sess (req : req) ~used ~fail_s ~cause =
  if
    cause <> "drop"
    && used < sess.r.max_attempts
    && sess.retries < sess.retry_budget
  then begin
    sess.retries <- sess.retries + 1;
    let backoff_ms =
      Float.min sess.r.backoff_cap_ms
        (sess.r.backoff_base_ms *. float_of_int (1 lsl (used - 1)))
    in
    let backoff_ms =
      backoff_ms
      *. (1.0 +. (sess.r.backoff_jitter *. Prng.float sess.prng 1.0))
    in
    Heapq.push sess.heap
      (us (fail_s +. (backoff_ms /. 1e3)))
      (Attempt (req, used + 1))
  end
  else finalize_failure sess req

let hedge_applies sess req =
  sess.r.hedge_ms > 0.0 && req.kind = Client.Read

let process sess ~db_timeline ev t =
  match ev with
  | Attempt (req, n) ->
      if not req.done_ then begin
        match attempt sess ~db_timeline req t with
        | Success c ->
            if n = 1 && hedge_applies sess req && (c -. t) *. 1e3 > sess.r.hedge_ms
            then begin
              (* Response is on its way but slow: race a hedge. *)
              req.primary <- Primary_ok c;
              Heapq.push sess.heap
                (us (t +. (sess.r.hedge_ms /. 1e3)))
                (Hedge req)
            end
            else finalize_success sess req ~complete_s:c ~hedge_won:false
        | Failed (f, cause) ->
            if
              n = 1 && hedge_applies sess req
              && (f -. t) *. 1e3 > sess.r.hedge_ms
            then begin
              (* The failure will only be detected after the hedge
                 fires (a timeout): let the hedge race the detection. *)
              req.primary <- Primary_failed (f, cause);
              Heapq.push sess.heap
                (us (t +. (sess.r.hedge_ms /. 1e3)))
                (Hedge req)
            end
            else maybe_retry sess req ~used:n ~fail_s:f ~cause
      end
  | Hedge req ->
      if not req.done_ then begin
        let hres = attempt sess ~db_timeline req t in
        match (req.primary, hres) with
        | Primary_ok c_p, Success c_h ->
            if c_h < c_p then
              finalize_success sess req ~complete_s:c_h ~hedge_won:true
            else finalize_success sess req ~complete_s:c_p ~hedge_won:false
        | Primary_ok c_p, Failed _ ->
            finalize_success sess req ~complete_s:c_p ~hedge_won:false
        | Primary_failed _, Success c_h ->
            finalize_success sess req ~complete_s:c_h ~hedge_won:true
        | Primary_failed (f_p, cause_p), Failed (f_h, cause_h) ->
            let f, cause =
              if f_h > f_p then (f_h, cause_h) else (f_p, cause_p)
            in
            (* Both the primary and the hedge burned an attempt. *)
            maybe_retry sess req ~used:2 ~fail_s:f ~cause
        | No_primary, _ ->
            (* A hedge is only ever scheduled after its primary result
               was stored. *)
            assert false
      end

let run w ~profile ~resilience ~gateway ~pauses ~db_timeline ~seed =
  let sess =
    {
      w;
      r = resilience;
      inj = Injector.create ~profile ~seed:(seed + 1) ~pauses;
      gw = Gateway.create gateway ~pauses;
      prng = Prng.create seed;
      heap = Heapq.create ();
      latencies = Histogram.create ();
      attempts = 0;
      retries = 0;
      retry_budget = 0;
      ok = 0;
      failed = 0;
      timeouts = 0;
      drops = 0;
      errors = 0;
      hedge_wins = 0;
    }
  in
  (* Arrivals: a Poisson process whose rate follows the injector's load
     multiplier — the fault schedule warps the arrival stream itself
     (retry storms from the rest of the client population). *)
  let reqs = Vec.create () in
  let t = ref 0.0 in
  let continue = ref true in
  while !continue do
    let m = Injector.load_multiplier sess.inj !t in
    t := !t +. Prng.exponential sess.prng (1.0 /. (w.Client.ops_per_s *. m));
    if !t < w.Client.duration_s then
      Vec.push reqs
        {
          arrival_s = !t;
          kind =
            (if Prng.chance sess.prng w.Client.read_frac then Client.Read
             else Client.Update);
          attempts = 0;
          done_ = false;
          ok = false;
          primary = No_primary;
        }
    else continue := false
  done;
  let requests = Vec.length reqs in
  sess.retry_budget <-
    int_of_float
      (resilience.retry_budget_pct /. 100.0 *. float_of_int requests);
  Vec.iter
    (fun req -> Heapq.push sess.heap (us req.arrival_s) (Attempt (req, 1)))
    reqs;
  let rec drain () =
    match Heapq.pop sess.heap with
    | None -> ()
    | Some (t_us, ev) ->
        process sess ~db_timeline ev (float_of_int t_us /. 1e6);
        drain ()
  in
  drain ();
  {
    profile = profile.Gcperf_fault.Profile.name;
    requests;
    ok = sess.ok;
    failed = sess.failed;
    attempts = sess.attempts;
    retries = sess.retries;
    retry_amplification =
      (if requests = 0 then 0.0
       else float_of_int sess.attempts /. float_of_int requests);
    goodput_ops_s =
      (if w.Client.duration_s <= 0.0 then 0.0
       else float_of_int sess.ok /. w.Client.duration_s);
    p50_ms = Histogram.percentile sess.latencies 50.0;
    p99_ms = Histogram.percentile sess.latencies 99.0;
    p999_ms = Histogram.percentile sess.latencies 99.9;
    max_ms = Histogram.max sess.latencies;
    timeouts = sess.timeouts;
    sheds = Gateway.sheds sess.gw;
    fast_rejects = Gateway.fast_rejects sess.gw;
    drops = sess.drops;
    errors = sess.errors;
    hedge_wins = sess.hedge_wins;
  }
