(** Shared collector context.

    Everything a collector needs from its environment: the machine cost
    model, the virtual clock to charge pauses to, the event log, the
    telemetry registry, and a view of the mutator (thread count for
    safepoint costs, root-set iteration for tracing).  The runtime
    builds one of these and hands it to the collector constructor. *)

exception Out_of_memory of string
(** Raised when a full collection cannot make enough room. *)

type t = {
  machine : Gcperf_machine.Machine.t;
  clock : Gcperf_sim.Clock.t;
  events : Gcperf_sim.Gc_event.t;
  telemetry : Gcperf_telemetry.Telemetry.t;
      (** span/histogram/metrics sink; observation only — recording
          never perturbs the clock, the PRNGs or the heap model *)
  mutable mutator_threads : int;
  mutable iter_roots : (int -> unit) -> unit;
      (** iterate over all root object ids (thread stacks + globals);
          installed by the runtime *)
  mutable policy : Gcperf_policy.Policy.t option;
      (** ergonomics policy fed one observation per pause by
          {!record_pause}; [None] (the default) is the fixed-size
          configuration and is byte-identical to builds without the
          policy subsystem *)
  mutable survivor_overflow : bool;
      (** set by the collection algorithms when an object was promoted
          early because the survivor space could not hold it; consumed
          (and cleared) by the next policy observation *)
  mutable last_pause_end_us : float;
      (** end of the previous observed pause, for the mutator-interval
          signal; only maintained while a policy is attached *)
  mutable young_capacity : unit -> int;
      (** current young-generation capacity; installed by the collector *)
  mutable heap_capacity : unit -> int;
      (** total committed heap; installed by the collector *)
  scratch_obs : Gcperf_policy.Policy.observation;
      (** observation record reused by {!record_pause} for every pause;
          policies copy what they keep during [observe] *)
  pause_counters : pause_counters;
}

and pause_counters
(** The telemetry counters {!record_pause} bumps, interned at creation. *)

val create :
  ?telemetry:Gcperf_telemetry.Telemetry.t ->
  Gcperf_machine.Machine.t ->
  Gcperf_sim.Clock.t ->
  Gcperf_sim.Gc_event.t ->
  t
(** Fresh context with no threads and an empty root iterator.
    [telemetry] defaults to a fresh registry honouring
    {!Gcperf_telemetry.Telemetry.default_enabled}. *)

val stw_begin_us : t -> float
(** Cost of bringing all mutator threads to the safepoint. *)

val record_pause :
  ?sub:(unit -> (Gcperf_telemetry.Span.phase * float) list) ->
  t ->
  collector:string ->
  kind:Gcperf_sim.Gc_event.pause_kind ->
  reason:string ->
  phases:(unit -> (Gcperf_telemetry.Span.phase * float) list) ->
  duration_us:float ->
  young_before:int ->
  young_after:int ->
  old_before:int ->
  old_after:int ->
  promoted:int ->
  unit
(** Advances the clock across the pause, appends the event and — when
    telemetry is enabled — records the equivalent {!Gcperf_telemetry.Span.t}
    with the per-phase breakdown.  [phases] is a thunk producing the
    per-phase breakdown summing to [duration_us]; it is forced only when
    a span is recorded, keeping the telemetry-off path allocation-free.
    Pass [(fun () -> [])] when the caller has none.  [sub] optionally
    produces plan/move sub-attributions of relocation phases (see
    {!Gcperf_telemetry.Span.t.sub}); it never contributes to the
    duration. *)
