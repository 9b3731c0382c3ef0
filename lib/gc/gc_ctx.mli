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
      (** the pause log, with every pause's phases *)
  telemetry : Gcperf_telemetry.Telemetry.t;
      (** counter/gauge sink; observation only — recording never
          perturbs the clock, the PRNGs or the heap model *)
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

val trace_all :
  t ->
  Gcperf_heap.Obj_store.t ->
  marked:Gcperf_util.Int_vec.t ->
  stack:Gcperf_util.Int_vec.t ->
  unit
(** The trace from the roots: marks every object reachable from
    [t.iter_roots] under a fresh trace epoch
    ({!Gcperf_heap.Obj_store.begin_trace}), leaving the marked ids in
    discovery order in [marked] ([stack] is the work list; both are
    cleared first).  Mark stamps stay queryable via
    {!Gcperf_heap.Obj_store.is_marked} until the next trace.  Every
    full-heap trace runs through here: the generational and region
    mark-compacts, CMS's and G1's remarks, ConcurrentRegions' mark flip
    and JournalRC's backup trace. *)

val stw_begin_us : t -> float
(** Cost of bringing all mutator threads to the safepoint. *)

val open_pause : t -> fixed_us:float -> unit
(** Charges the three phases most pauses open with to the pause being
    built in [t.events] ({!Gcperf_sim.Gc_event.phase}):
    time-to-safepoint ({!stw_begin_us}), root scanning, then [fixed_us]
    of fixed overhead. *)

val relocation : t -> float -> unit
(** [relocation t us] attributes [us] of relocation work (copy, promote
    or compact time already charged) to the pause being built as
    plan/move sub-phases: an eighth to planning, the rest to moving. *)

val record_pause :
  t ->
  collector:string ->
  kind:Gcperf_sim.Gc_event.pause_kind ->
  reason:string ->
  young_before:int ->
  young_after:int ->
  old_before:int ->
  old_after:int ->
  promoted:int ->
  unit
(** Appends the event, closing the phases charged to [t.events] since
    the previous pause (a collector charges them, in order, right before
    recording); its duration is their sum in charge order from [0.0].
    Advances the clock across the pause and, when telemetry is enabled,
    bumps the pause counters.  Feeds the attached policy, if any. *)
