(** Cost extraction for the LBO distillation methodology.

    The runtime splits everything a collector adds on top of the raw
    mutator timeline into four counters; this module owns their names
    (producer: [Vm.step]; consumer: [lib/distill]) and reads them back
    out of a telemetry registry, and the stop-the-world totals out of a
    pause log.  See DESIGN.md §18. *)

val mutator_raw_us : string
(** Counter: Σ dt over all mutator quanta — the recorded mutator
    timeline with every collector cost struck out. *)

val alloc_tax_us : string
(** Counter: allocation-path overhead (TLAB refill / serialised bump).
    Retained in the ideal-GC baseline: an ideal collector still hands
    out memory. *)

val barrier_tax_us : string
(** Counter: mutator-tax dilation (read/SATB barriers, journal appends,
    backpressure) charged on quanta even when no GC worker runs. *)

val steal_tax_us : string
(** Counter: core-stealing dilation from concurrent GC workers. *)

type taxes = {
  raw_us : float;
  alloc_us : float;
  barrier_us : float;
  steal_us : float;
}

val taxes : Telemetry.t -> taxes
(** Current values of the four counters (0 where never incremented). *)

val stw_total_us : Gcperf_sim.Gc_event.t -> float
(** Total stop-the-world pause time: every logged pause's duration,
    summed in log order (bit-equal to the [gc.pause_us_total] counter of
    a run traced from its start). *)

val stw_phase_us :
  Gcperf_sim.Gc_event.t -> (Gcperf_sim.Gc_event.phase * float) list
(** Stop-the-world time per phase, summed over every logged pause, in
    {!Gcperf_sim.Gc_event.all_phases} order; phases with no positive
    total are omitted. *)
