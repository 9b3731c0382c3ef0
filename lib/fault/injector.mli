(** Deterministic fault injector.

    One injector per experiment cell, created from the cell's derived
    seed and the server's pause timeline.  It owns a {!Gcperf_sim.Clock}
    that the session driver advances to each simulated event time; every
    decision — fault outcome, spike multiplier — reads the clock, so the
    fault schedule is a pure function of (profile, seed, pauses) and
    never of wall time or worker count.

    Both {!outcome} and {!load_multiplier} expect non-decreasing times:
    the session's event loop processes attempts in simulated-time order,
    which is exactly what keeps the PRNG stream reproducible. *)

type outcome =
  | Pass  (** the response goes through untouched *)
  | Delay of float  (** the response arrives [ms] late *)
  | Drop  (** the response is lost; the client hears nothing *)
  | Error  (** the server fails the request immediately *)

type t

val create :
  profile:Profile.t -> seed:int -> pauses:(float * float) array -> t
(** [pauses] are the server's stop-the-world intervals in seconds,
    sorted by start time (as from {!Gcperf_sim.Gc_event.intervals}). *)

val advance_to : t -> float -> unit
(** Move the injector's clock forward to an absolute simulated time.
    Times in the past are ignored (the clock never rewinds). *)

val outcome : t -> outcome
(** Draw the fault outcome for a request issued at the clock's current
    time.  Consumes a fixed number of PRNG draws per call regardless of
    the outcome, so schedules stay aligned across profiles that share a
    seed. *)

val load_multiplier : t -> float -> float
(** [load_multiplier t at_s] is the arrival-rate multiplier at [at_s]:
    the max of every fixed spike covering [at_s] and, when the profile
    spikes on pauses, of the pause-window multiplier.  [1.0] when
    nothing is spiking.  [at_s] must be non-decreasing across calls. *)
