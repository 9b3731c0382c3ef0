module Prng = Gcperf_util.Prng
module Clock = Gcperf_sim.Clock

type outcome = Pass | Delay of float | Drop | Error

type t = {
  profile : Profile.t;
  prng : Prng.t;
  clock : Clock.t;
  pauses : (float * float) array;
  (* Per-profile outcome thresholds flattened into one float array
     (error, drop, delay, delay_min_ms, delay_span): [outcome] runs once
     per simulated request, and unboxed array loads keep the hot path to
     four draws plus compares instead of chasing boxed profile fields. *)
  thresholds : float array;
  (* Monotone cursor into [pauses] for the spike window: callers advance
     time forward only, so the first pause whose window has not fully
     passed is all we ever need. *)
  mutable spike_cursor : int;
}

let create ~profile ~seed ~pauses =
  {
    profile;
    prng = Prng.create seed;
    clock = Clock.create ();
    pauses;
    thresholds =
      [|
        profile.Profile.error_prob;
        profile.Profile.drop_prob;
        profile.Profile.delay_prob;
        profile.Profile.delay_min_ms;
        profile.Profile.delay_max_ms -. profile.Profile.delay_min_ms;
      |];
    spike_cursor = 0;
  }

let advance_to t at_s =
  let d = at_s -. Clock.now_s t.clock in
  if d > 0.0 then Clock.advance_s t.clock d

let outcome t =
  (* Fixed draw order and count (error, drop, delay, delay length): the
     stream position after a request is independent of the outcome.
     [unit_float] sits at the same stream position as [float _ 1.0] and
     yields the same value, so the schedule is unchanged. *)
  let prng = t.prng in
  let u_error = Prng.unit_float prng in
  let u_drop = Prng.unit_float prng in
  let u_delay = Prng.unit_float prng in
  let u_len = Prng.unit_float prng in
  let thr = t.thresholds in
  if u_error < Array.unsafe_get thr 0 then Error
  else if u_drop < Array.unsafe_get thr 1 then Drop
  else if u_delay < Array.unsafe_get thr 2 then
    Delay (Array.unsafe_get thr 3 +. (u_len *. Array.unsafe_get thr 4))
  else Pass

let load_multiplier t at_s =
  let p = t.profile in
  let fixed =
    List.fold_left
      (fun acc s ->
        if at_s >= s.Profile.at_s && at_s < s.Profile.at_s +. s.Profile.len_s
        then Float.max acc s.Profile.mult
        else acc)
      1.0 p.Profile.spikes
  in
  if p.Profile.pause_spike_mult <= 1.0 then fixed
  else begin
    let tail = p.Profile.pause_spike_tail_s in
    let n = Array.length t.pauses in
    while
      t.spike_cursor < n
      && snd t.pauses.(t.spike_cursor) +. tail < at_s
    do
      t.spike_cursor <- t.spike_cursor + 1
    done;
    if
      t.spike_cursor < n
      && at_s >= fst t.pauses.(t.spike_cursor)
      && at_s <= snd t.pauses.(t.spike_cursor) +. tail
    then Float.max fixed p.Profile.pause_spike_mult
    else fixed
  end
