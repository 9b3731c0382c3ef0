(** The simulated virtual machine.

    Wires the machine model, virtual clock, heap and collector together
    and exposes the mutator-facing API: spawn threads, allocate objects
    (with a lifetime after which the object's root is dropped), store
    references through the collector's write barrier, and advance virtual
    time in quanta.

    Mutator threads are logical: they all progress at the same rate, in
    parallel, one quantum at a time.  Stop-the-world pauses happen inside
    allocation calls (when the collector must collect) and advance the
    clock; concurrent collector phases progress at each quantum boundary
    and may dilate mutator time (stolen cores). *)

type t

type thread = {
  tid : int;
  roots : Gcperf_util.Int_table.t;  (** this thread's root set *)
  prng : Gcperf_util.Prng.t;
  mutable live : bool;
  mutable quantum_allocs : int;  (** allocations in the current quantum *)
  mutable quantum_bytes : int;
}

type lifetime =
  [ `Bytes of int
    (** the object's root is dropped after this many further bytes have
        been allocated VM-wide — the standard way to express lifetimes
        under the generational hypothesis *)
  | `Permanent  (** rooted until explicitly dropped *) ]

val create :
  ?telemetry:Gcperf_telemetry.Telemetry.t ->
  Gcperf_machine.Machine.t ->
  Gcperf_gc.Gc_config.t ->
  seed:int ->
  t
(** [telemetry] defaults to a fresh registry honouring
    {!Gcperf_telemetry.Telemetry.default_enabled}. *)

val machine : t -> Gcperf_machine.Machine.t
val events : t -> Gcperf_sim.Gc_event.t
val collector : t -> Gcperf_gc.Collector.t

val policy : t -> Gcperf_policy.Policy.t option
(** The ergonomics policy attached by the collector registry when the
    configuration has [adaptive = true]; [None] on fixed-size runs.
    Exposes live stats and the convergence trajectory. *)

val now_s : t -> float
val allocated_bytes : t -> int

val spawn_thread : t -> thread
(** Adds a live thread with the next tid.  A VM holds at most 65535
    threads over its lifetime, killed ones included; past that it raises
    [Invalid_argument] (see {!check_tid}). *)

val check_tid : int -> unit
(** The check [spawn_thread] applies to the tid it is about to assign:
    raises [Invalid_argument] unless [0 <= tid <= 65534], the tids whose
    [tid + 1] fits the 16 owner bits of a packed death-queue payload. *)

val kill_thread : t -> thread -> unit
(** Drops the thread's roots and removes it from safepoint accounting. *)

val threads : t -> thread list
(** Live threads. *)

val alloc : t -> thread -> size:int -> lifetime:lifetime -> int
(** Allocates an object rooted in the thread's root set.  May run any
    number of collections (advancing the clock) before returning.
    @raise Gcperf_gc.Gc_ctx.Out_of_memory if the heap cannot fit it. *)

val alloc_global : t -> size:int -> lifetime:lifetime -> int
(** Allocates an object rooted in the VM's global root set. *)

val alloc_old_global : t -> size:int -> lifetime:lifetime -> int
(** Like {!alloc_global} but installs the object directly in the old
    generation (bulk cache rebuild / slab allocation path). *)

val add_ref : t -> parent:int -> child:int -> unit
(** Reference store through the collector's write barrier. *)

val remove_ref : t -> parent:int -> child:int -> unit

val drop_root : t -> thread -> int -> unit
(** Removes the object from the thread's root set (no-op if absent). *)

val drop_global_root : t -> int -> unit

val global_root : t -> int -> unit
(** Re-roots an existing object globally (e.g. after its allocating
    thread dies). *)

val step : t -> dt_us:float -> (thread -> unit) -> unit
(** [step t ~dt_us f] runs one quantum: applies [f] to every live thread
    (allocations and reference mutations happen here), then advances the
    clock by [dt_us] dilated by the collector's current mutator factor
    plus the allocation overhead of the quantum (TLAB refills or contended
    shared allocations), retires objects whose lifetime expired, and lets
    the collector's concurrent phases progress. *)

val system_gc : t -> unit
(** DaCapo's forced full collection between iterations. *)

val is_live : t -> int -> bool
(** Whether the id currently denotes a live heap object.  Mutators use
    this to avoid storing references through stale ids (their target may
    have been collected after its root was dropped). *)

val check_invariants : t -> (unit, string) result
