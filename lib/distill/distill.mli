(** LBO cost distillation (Cai & Blackburn; DESIGN.md §18).

    Synthesises an ideal-GC baseline for a recorded run — zero
    collection cost, honest allocation tax retained — and reports the
    real collector's distilled cost [(t_real − t_ideal)/t_ideal]
    decomposed into stop-the-world, concurrent-steal and mutator-tax
    shares.  Pure: all inputs come from the telemetry registry and the
    pause log the run recorded into; nothing here touches the
    simulation. *)

type components = {
  raw_us : float;  (** raw mutator timeline, collector costs struck out *)
  alloc_us : float;  (** allocation tax — kept in the ideal baseline *)
  stw_us : float;  (** total stop-the-world pause time *)
  steal_us : float;  (** core-stealing dilation by concurrent workers *)
  tax_us : float;  (** barrier/journal/backpressure mutator tax *)
  phases : (Gcperf_sim.Gc_event.phase * float) list;
      (** per-phase breakdown of [stw_us], in
          {!Gcperf_sim.Gc_event.all_phases} order *)
}

type cost = {
  components : components;  (** after clamping (negatives/NaN → 0) *)
  t_ideal_us : float;  (** [raw_us + alloc_us] *)
  t_real_us : float;  (** [t_ideal_us + stw_us + steal_us + tax_us] *)
  stw_over : float;  (** [stw_us / t_ideal_us] *)
  steal_over : float;  (** [steal_us / t_ideal_us] *)
  tax_over : float;  (** [tax_us / t_ideal_us] *)
  distilled : float;
      (** [stw_over + steal_over + tax_over] — additive by construction;
          0 when [t_ideal_us = 0] (a run that never stepped). *)
}

val distill : components -> cost
(** Total function: negative or NaN components are clamped to 0, so the
    distilled cost is always non-negative and exactly 0 for a zero-cost
    (ideal) collector. *)

val of_run : Gcperf_telemetry.Telemetry.t -> Gcperf_sim.Gc_event.t -> cost
(** [of_run t log] distils the run that counted into [t] and logged its
    pauses in [log]. *)
