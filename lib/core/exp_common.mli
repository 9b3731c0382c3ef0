(** Shared experiment scaffolding.

    Fixes the machine, seeds, heap/young size grids and naming so every
    experiment in the study draws from the same configuration space. *)

module Pool = Gcperf_exec.Pool
(** Re-exported so runners fan cells out without naming the library. *)

val machine : unit -> Gcperf_machine.Machine.t
(** The paper's 48-core server, built once when the module is
    initialised.  The value is immutable, so cells on any
    {!Gcperf_exec.Pool} worker share it read-only. *)

val default_jobs : unit -> int
(** {!Gcperf_exec.Pool.default_jobs}: the default for every runner's
    [?jobs] parameter. *)

val gb : int -> int
val mb : int -> int

val baseline : Gcperf_gc.Gc_config.kind -> Gcperf_gc.Gc_config.t
(** ~16 GB heap, ~5.6 GB young generation, TLAB on (the study's
    baseline, i.e. Java's defaults on the 64 GB machine). *)

val config :
  Gcperf_gc.Gc_config.kind ->
  heap:int ->
  young:int ->
  ?tlab:bool ->
  unit ->
  Gcperf_gc.Gc_config.t

val size_grid : unit -> (int * int) list
(** The (heap, young) combinations of §3.1: heap from the baseline up to
    the machine's 64 GB, young from the baseline up to the heap. *)

val small_size_grid : unit -> (int * int) list
(** The small-memory grid of §3.3: heaps of 1 GB/500 MB/250 MB crossed
    with young sizes of 200 MB/100 MB. *)

val all_kinds : Gcperf_gc.Gc_config.kind list

val kind_name : Gcperf_gc.Gc_config.kind -> string

val seed : int
(** Base seed; replicated runs derive their own deterministically. *)
