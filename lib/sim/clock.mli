(** Virtual clock.

    All simulated activity (mutator work, allocation overheads, GC pauses,
    concurrent phases) advances this clock; nothing reads host time.  The
    unit is the virtual microsecond. *)

type t

val create : unit -> t

val now_us : t -> float

val now_s : t -> float

val advance_us : t -> float -> unit
(** [advance_us t d] moves time forward by [d >= 0] microseconds. *)

val advance_s : t -> float -> unit
