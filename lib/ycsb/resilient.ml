module Prng = Gcperf_util.Prng
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

(* Per-request state lives in columns indexed by request number (arrival
   order): the arrival time in a [Float.Array], everything else as bits
   of one [state] byte, and a hedged read's pending primary result in
   [state] plus a [Float.Array] of times.  A session therefore allocates
   no block per request. *)
let st_read = 1
let st_done = 2

(* Set while a hedge is in flight: the primary attempt was served and its
   response completes at [primary_s], or (clear) it failed and the client
   detects that at [primary_s]. *)
let st_primary_served = 4

(* The primary failure's cause was a lost response that no timeout
   watches for, the one cause [maybe_retry] does not react to. *)
let st_primary_dropped = 8

(* An event is one immediate, [(request lsl attempt_bits) lor n]: [n >= 1]
   is that request's attempt number and [n = 0] its hedge.  The event heap
   is an [int Heapq.t], so scheduling allocates nothing and a sift moves
   no pointer.  The request field gets 22 bits, which keeps the payload
   non-negative: 2^22 requests is about four times a full-scale two-hour
   session.  The attempt field gets the other 40.  [run] rejects a
   session that exceeds either field. *)
let attempt_bits = 40
let attempt_mask = (1 lsl attempt_bits) - 1
let max_requests = 1 lsl (62 - attempt_bits)

(* What one attempt came to.  The time it resolves at is left in
   [sess.result_s]: when a [served] response completes, or when the
   client learns of a failure. *)
let served = 0
let failed = 1
let dropped = 2 (* failed, and the client never notices (no timeout) *)

type session = {
  w : Client.workload;
  r : resilience;
  inj : Injector.t;
  gw : Gateway.t;
  prng : Prng.t;
  heap : int Heapq.t;
  latencies : Histogram.t;  (* successful requests, ms *)
  arrival_s : Float.Array.t;
  state : Bytes.t;
  primary_s : Float.Array.t;
  result_s : Float.Array.t;  (* one slot: the last attempt's time *)
  mutable attempts : int;
  mutable retries : int;
  retry_budget : int;
  mutable ok : int;
  mutable failed : int;
  mutable timeouts : int;
  mutable drops : int;
  mutable errors : int;
  mutable hedge_wins : int;
}

let us s = int_of_float (s *. 1e6)

let has sess i bit = Bytes.get_uint8 sess.state i land bit <> 0

let set sess i bit =
  Bytes.set_uint8 sess.state i (Bytes.get_uint8 sess.state i lor bit)

(* Base service time: the same model as Client.run — reads step up with
   the database size, updates are flat log appends — with the same
   log-normal jitter. *)
let service_ms sess ~db_timeline i at_s =
  let base =
    if has sess i st_read then
      let db = Client.db_bytes_at db_timeline at_s in
      sess.w.Client.read_base_ms
      +. (sess.w.Client.read_step_ms
          *. float_of_int (db / sess.w.Client.read_step_bytes))
    else sess.w.Client.update_base_ms
  in
  if sess.w.Client.jitter_sigma <= 0.0 then base
  else
    base
    *. Prng.lognormal sess.prng
         ~mu:(-.(sess.w.Client.jitter_sigma *. sess.w.Client.jitter_sigma)
             /. 2.0)
         ~sigma:sess.w.Client.jitter_sigma

(* Inlined, like [finalize_success], so the time is stored unboxed. *)
let[@inline] resolve sess outcome at_s =
  Float.Array.set sess.result_s 0 at_s;
  outcome

(* Make one attempt of request [i] at [t]: consult the injector, then
   the gateway, then apply the client-side timeout.  Failure times are
   when the CLIENT learns of the failure (immediately for errors and
   rejections, at the timeout for lost or too-slow responses). *)
let attempt sess ~db_timeline i t =
  sess.attempts <- sess.attempts + 1;
  Injector.advance_to sess.inj t;
  let fault = Injector.outcome sess.inj in
  let reject_cost_ms = 0.2 in
  match fault with
  | Injector.Error ->
      sess.errors <- sess.errors + 1;
      resolve sess failed (t +. (reject_cost_ms /. 1e3))
  | Injector.Pass | Injector.Delay _ | Injector.Drop -> (
      let service = service_ms sess ~db_timeline i t in
      match Gateway.offer sess.gw ~now_s:t ~service_ms:service with
      | Gateway.Shed | Gateway.Fast_rejected ->
          resolve sess failed (t +. (reject_cost_ms /. 1e3))
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
                resolve sess failed (t +. (sess.r.timeout_ms /. 1e3))
              end
              else resolve sess dropped t
          | _ ->
              let lat_ms = (resp_s -. t) *. 1e3 in
              if
                Float.is_finite sess.r.timeout_ms
                && lat_ms > sess.r.timeout_ms
              then begin
                sess.timeouts <- sess.timeouts + 1;
                resolve sess failed (t +. (sess.r.timeout_ms /. 1e3))
              end
              else resolve sess served resp_s))

let[@inline] finalize_success sess i ~complete_s ~hedge_won =
  set sess i st_done;
  sess.ok <- sess.ok + 1;
  let lat_ms = (complete_s -. Float.Array.get sess.arrival_s i) *. 1e3 in
  Histogram.record sess.latencies lat_ms;
  if hedge_won then sess.hedge_wins <- sess.hedge_wins + 1

(* Failure detected at [fail_s] after [used] attempts: retry if the
   policy, the per-request attempt cap and the global budget all allow
   it.  A [dropped] failure is one the client never detected (no
   timeout), so there is nothing to react to. *)
let maybe_retry sess i ~used ~fail_s ~was_dropped =
  if
    (not was_dropped)
    && used < sess.r.max_attempts
    && sess.retries < sess.retry_budget
  then begin
    sess.retries <- sess.retries + 1;
    let backoff_ms =
      Float.min sess.r.backoff_cap_ms
        (sess.r.backoff_base_ms *. Float.ldexp 1.0 (used - 1))
    in
    let backoff_ms =
      backoff_ms
      *. (1.0 +. (sess.r.backoff_jitter *. Prng.float sess.prng 1.0))
    in
    Heapq.push sess.heap
      (us (fail_s +. (backoff_ms /. 1e3)))
      ((i lsl attempt_bits) lor (used + 1))
  end
  else begin
    set sess i st_done;
    sess.failed <- sess.failed + 1
  end

(* Attempt [n] of request [i], due at [t]. *)
let process_attempt sess ~db_timeline i n t =
  let outcome = attempt sess ~db_timeline i t in
  let res_s = Float.Array.get sess.result_s 0 in
  if
    n = 1 && sess.r.hedge_ms > 0.0 && has sess i st_read
    && (res_s -. t) *. 1e3 > sess.r.hedge_ms
  then begin
    (* The primary's response, or the detection of its failure (a
       timeout), comes only after the hedge fires: race a hedge. *)
    Float.Array.set sess.primary_s i res_s;
    if outcome = served then set sess i st_primary_served
    else if outcome = dropped then set sess i st_primary_dropped;
    Heapq.push sess.heap
      (us (t +. (sess.r.hedge_ms /. 1e3)))
      (i lsl attempt_bits)
  end
  else if outcome = served then
    finalize_success sess i ~complete_s:res_s ~hedge_won:false
  else
    maybe_retry sess i ~used:n ~fail_s:res_s ~was_dropped:(outcome = dropped)

(* The hedge of request [i], due at [t], against the stored primary. *)
let process_hedge sess ~db_timeline i t =
  let outcome = attempt sess ~db_timeline i t in
  let h_s = Float.Array.get sess.result_s 0 in
  let p_s = Float.Array.get sess.primary_s i in
  if has sess i st_primary_served then
    if outcome = served && h_s < p_s then
      finalize_success sess i ~complete_s:h_s ~hedge_won:true
    else finalize_success sess i ~complete_s:p_s ~hedge_won:false
  else if outcome = served then
    finalize_success sess i ~complete_s:h_s ~hedge_won:true
  else if
    (* Both the primary and the hedge burned an attempt; the later
       detection is the one the client acts on. *)
    h_s > p_s
  then maybe_retry sess i ~used:2 ~fail_s:h_s ~was_dropped:(outcome = dropped)
  else
    maybe_retry sess i ~used:2 ~fail_s:p_s
      ~was_dropped:(has sess i st_primary_dropped)

let run w ~profile ~resilience ~gateway ~pauses ~db_timeline ~seed =
  if resilience.max_attempts > attempt_mask then
    invalid_arg
      (Printf.sprintf
         "Resilient.run: max_attempts %d does not fit the %d-bit attempt \
          field (at most %d)"
         resilience.max_attempts attempt_bits attempt_mask);
  let inj = Injector.create ~profile ~seed:(seed + 1) ~pauses in
  let gw = Gateway.create gateway ~pauses in
  let prng = Prng.create seed in
  (* Arrivals: a Poisson process whose rate follows the injector's load
     multiplier — the fault schedule warps the arrival stream itself
     (retry storms from the rest of the client population). *)
  let arrival_s = ref (Float.Array.create 1024) in
  let state = ref (Bytes.create 1024) in
  let requests = ref 0 in
  let t = ref 0.0 in
  let continue = ref true in
  while !continue do
    let m = Injector.load_multiplier inj !t in
    t := !t +. Prng.exponential prng (1.0 /. (w.Client.ops_per_s *. m));
    if !t < w.Client.duration_s then begin
      let i = !requests in
      if i = max_requests then
        invalid_arg
          (Printf.sprintf
             "Resilient.run: more than %d requests do not fit the %d-bit \
              request field of an event"
             max_requests (62 - attempt_bits));
      if i = Float.Array.length !arrival_s then begin
        let a = Float.Array.create (2 * i) in
        Float.Array.blit !arrival_s 0 a 0 i;
        arrival_s := a;
        state := Bytes.extend !state 0 i
      end;
      Float.Array.set !arrival_s i !t;
      Bytes.set_uint8 !state i
        (if Prng.chance prng w.Client.read_frac then st_read else 0);
      requests := i + 1
    end
    else continue := false
  done;
  let requests = !requests in
  let sess =
    {
      w;
      r = resilience;
      inj;
      gw;
      prng;
      heap = Heapq.create ();
      latencies = Histogram.create ();
      arrival_s = !arrival_s;
      state = !state;
      primary_s = Float.Array.create requests;
      result_s = Float.Array.create 1;
      attempts = 0;
      retries = 0;
      retry_budget =
        int_of_float
          (resilience.retry_budget_pct /. 100.0 *. float_of_int requests);
      ok = 0;
      failed = 0;
      timeouts = 0;
      drops = 0;
      errors = 0;
      hedge_wins = 0;
    }
  in
  for i = 0 to requests - 1 do
    Heapq.push sess.heap
      (us (Float.Array.get sess.arrival_s i))
      ((i lsl attempt_bits) lor 1)
  done;
  let rec drain () =
    match Heapq.pop sess.heap with
    | None -> ()
    | Some (t_us, ev) ->
        let i = ev lsr attempt_bits and n = ev land attempt_mask in
        if not (has sess i st_done) then begin
          let t = float_of_int t_us /. 1e6 in
          if n = 0 then process_hedge sess ~db_timeline i t
          else process_attempt sess ~db_timeline i n t
        end;
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
