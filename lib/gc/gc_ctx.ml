module Telemetry = Gcperf_telemetry.Telemetry
module Gc_event = Gcperf_sim.Gc_event
module Policy = Gcperf_policy.Policy
module Metrics = Gcperf_telemetry.Metrics
module Os = Gcperf_heap.Obj_store
module Vec = Gcperf_util.Int_vec

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
  pause_counters : pause_counters;
}

and pause_counters = {
  pauses : Metrics.handle;
  pause_us_total : Metrics.handle;
  promoted_bytes_total : Metrics.handle;
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
    pause_counters =
      (let m = Telemetry.metrics telemetry in
       {
         pauses = Metrics.handle m "gc.pauses";
         pause_us_total = Metrics.handle m "gc.pause_us_total";
         promoted_bytes_total = Metrics.handle m "gc.promoted_bytes_total";
       });
  }

let trace_all t store ~marked ~stack =
  Vec.clear marked;
  Vec.clear stack;
  Os.begin_trace store;
  let push id =
    if (not (Os.is_nowhere store id)) && not (Os.is_marked store id) then begin
      Os.mark store id;
      Vec.push marked id;
      Vec.push stack id
    end
  in
  t.iter_roots push;
  Os.sequential_finish store ~pred:Os.Trace_live ~marked ~stack

let stw_begin_us t =
  Gcperf_machine.Machine.time_to_safepoint t.machine
    ~mutator_threads:t.mutator_threads

let open_pause t ~fixed_us =
  Gc_event.phase t.events Gc_event.Safepoint (stw_begin_us t);
  Gc_event.phase t.events Gc_event.Root_scan
    (Gcperf_machine.Machine.root_scan_us t.machine
       ~mutator_threads:t.mutator_threads);
  Gc_event.phase t.events Gc_event.Fixed fixed_us

(* The plan pass is one sequential walk over the moved set, an eighth of
   the relocation charge in this cost model; the move carries the rest.
   Informational only: the split never feeds the duration (see DESIGN.md
   §14). *)
let relocation t us =
  let plan = us /. 8.0 in
  Gc_event.sub t.events Gc_event.Plan plan;
  Gc_event.sub t.events Gc_event.Move (us -. plan)

let record_pause t ~collector ~kind ~reason ~young_before ~young_after
    ~old_before ~old_after ~promoted =
  let start_us = Gcperf_sim.Clock.now_us t.clock in
  let duration_us =
    Gc_event.record t.events ~start_us ~kind ~collector ~reason ~young_before
      ~young_after ~old_before ~old_after ~promoted
  in
  Gcperf_sim.Clock.advance_us t.clock duration_us;
  if Telemetry.enabled t.telemetry then begin
    let c = t.pause_counters in
    Metrics.bump c.pauses 1.0;
    Metrics.bump c.pause_us_total duration_us;
    Metrics.bump c.promoted_bytes_total (float_of_int promoted)
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
        | Gc_event.Young | Gc_event.Mixed -> Policy.Minor
        | Gc_event.Full -> Policy.Major
        | Gc_event.Initial_mark | Gc_event.Remark | Gc_event.Cleanup ->
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
