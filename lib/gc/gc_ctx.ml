module Telemetry = Gcperf_telemetry.Telemetry
module Span = Gcperf_telemetry.Span
module Policy = Gcperf_policy.Policy

exception Out_of_memory of string

type t = {
  machine : Gcperf_machine.Machine.t;
  clock : Gcperf_sim.Clock.t;
  events : Gcperf_sim.Gc_event.t;
  telemetry : Telemetry.t;
  mutable mutator_threads : int;
  mutable iter_roots : (int -> unit) -> unit;
  mutable policy : Policy.t option;
  mutable survivor_overflow : bool;
  mutable last_pause_end_us : float;
  mutable young_capacity : unit -> int;
  mutable heap_capacity : unit -> int;
  scratch_obs : Policy.observation;
      (* reused per pause; policies copy what they keep during observe *)
}

let create ?telemetry machine clock events =
  let telemetry =
    match telemetry with Some t -> t | None -> Telemetry.create ()
  in
  {
    machine;
    clock;
    events;
    telemetry;
    mutator_threads = 1;
    iter_roots = (fun _ -> ());
    policy = None;
    survivor_overflow = false;
    last_pause_end_us = 0.0;
    young_capacity = (fun () -> 0);
    heap_capacity = (fun () -> 0);
    scratch_obs = Policy.scratch_observation ();
  }

let stw_begin_us t =
  Gcperf_machine.Machine.time_to_safepoint t.machine
    ~mutator_threads:t.mutator_threads

(* [phases] (and the optional [sub] plan/move attribution) are thunks:
   the phase breakdown exists for telemetry spans only, so the per-pause
   list and its boxed floats are built exclusively when a span is
   actually recorded — the telemetry-off hot path pays one closure
   construction and no list. *)
let record_pause ?sub t ~collector ~kind ~reason ~phases ~duration_us
    ~young_before ~young_after ~old_before ~old_after ~promoted =
  let start_us = Gcperf_sim.Clock.now_us t.clock in
  Gcperf_sim.Clock.advance_us t.clock duration_us;
  Gcperf_sim.Gc_event.record t.events ~start_us ~duration_us ~kind ~collector
    ~reason ~young_before ~young_after ~old_before ~old_after ~promoted;
  if Telemetry.enabled t.telemetry then begin
    Telemetry.record_span t.telemetry
      {
        Span.collector;
        kind = Gcperf_sim.Gc_event.pause_kind_to_string kind;
        cause = reason;
        start_us;
        duration_us;
        phases = phases ();
        sub = (match sub with None -> [] | Some f -> f ());
        young_before;
        young_after;
        old_before;
        old_after;
        promoted;
      };
    Telemetry.incr t.telemetry "gc.pauses" 1.0;
    Telemetry.incr t.telemetry "gc.pause_us_total" duration_us;
    Telemetry.incr t.telemetry "gc.promoted_bytes_total"
      (float_of_int promoted)
  end;
  (* Ergonomics hook: every stop-the-world pause, from all six collectors,
     funnels through here, so one observation call covers them all.  With
     no policy attached this is a single branch — the fixed-size paths
     stay byte-identical. *)
  match t.policy with
  | None -> ()
  | Some p ->
      let pause_class =
        match kind with
        | Gcperf_sim.Gc_event.Young | Gcperf_sim.Gc_event.Mixed ->
            Policy.Minor
        | Gcperf_sim.Gc_event.Full -> Policy.Major
        | Gcperf_sim.Gc_event.Initial_mark | Gcperf_sim.Gc_event.Remark
        | Gcperf_sim.Gc_event.Cleanup ->
            Policy.Concurrent
      in
      let interval_ms =
        Float.max 0.0 ((start_us -. t.last_pause_end_us) /. 1000.0)
      in
      let obs = t.scratch_obs in
      obs.Policy.pause_class <- pause_class;
      obs.Policy.pause_ms <- duration_us /. 1000.0;
      obs.Policy.interval_ms <- interval_ms;
      obs.Policy.promoted_bytes <- promoted;
      obs.Policy.survived_bytes <- young_after;
      obs.Policy.survivor_overflow <- t.survivor_overflow;
      obs.Policy.young_capacity <- t.young_capacity ();
      obs.Policy.heap_used <- young_after + old_after;
      obs.Policy.heap_capacity <- t.heap_capacity ();
      p.Policy.observe obs;
      t.survivor_overflow <- false;
      t.last_pause_end_us <- Gcperf_sim.Clock.now_us t.clock
