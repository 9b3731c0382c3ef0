(** Parked worker domains for intra-collection parallel phases.

    Unlike {!Pool}, which spawns domains per call (right for coarse
    experiment fan-out, ruinous for a phase that runs thousands of times
    per artifact), the crew keeps its workers alive and parked between
    phases; a hand-off costs one lock and broadcast.

    The crew is a process-global singleton.  {!try_with} hands exclusive
    use of it to one caller at a time; a caller refused the crew must run
    its sequential path instead.  Kernels built on the crew must be
    content-deterministic — produce the same results however many workers
    execute them, including zero — so that the fallback (and any crew
    size) is observationally invisible. *)

type t

val try_with : domains:int -> (t -> unit) -> bool
(** [try_with ~domains f] tries to acquire the global crew, growing it to
    at least [domains - 1] parked workers, and runs [f crew] while
    holding it.  Returns [false] without running [f] when [domains <= 1]
    or when another domain holds the crew.  [f] may call {!run} any
    number of times (a multi-round phase performs one {!run} per round). *)

val run : t -> (int -> unit) -> unit
(** [run crew f] executes [f slot] on the calling domain (slot 0) and on
    every parked worker (slots 1..), returning when all have finished.
    The crew may hold more workers than the [domains] just requested —
    [f] must treat its slot number as a worker identity, not a partition
    index, and tolerate slots beyond the requested count (typically by
    returning immediately).

    If any slot raises, [run] still waits for every slot to finish, then
    re-raises the exception of the lowest failing slot on the caller —
    the schedule never decides which failure surfaces.  The crew stays
    usable for later phases. *)

val size : t -> int
(** Workers available to {!run}, including the calling domain. *)
