(** Drives a profile against a VM, one iteration at a time.

    This is the DaCapo-shaped mutator: it spawns the profile's threads,
    builds the startup live set, and then runs iterations in which every
    thread allocates at the profile's rate while the virtual clock
    advances quantum by quantum.  Iteration durations therefore include
    allocation overhead, stop-the-world pauses and concurrent-GC mutator
    dilation — exactly the components the paper measures. *)

type t

type iteration_stats = {
  index : int;
  duration_s : float;  (** wall (virtual) time of the iteration *)
  allocated_bytes : int;
  pauses : int;  (** GC pauses that happened during this iteration *)
  pause_s : float;  (** total pause time within the iteration *)
}

val create : Gcperf_runtime.Vm.t -> Profile.t -> seed:int -> t
(** Spawns the mutator threads and allocates the startup live set
    (which may itself trigger collections). *)

val thread_count : t -> int

val live_set_size : t -> int

val run_iteration : t -> iteration_stats
(** Runs one full iteration and returns its timing. *)

val run_seconds : t -> float -> unit
(** Runs the mutator for the given amount of virtual seconds without
    iteration structure (used by open-ended server workloads). *)
