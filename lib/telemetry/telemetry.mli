(** The in-memory telemetry registry.

    One [Telemetry.t] rides along with each simulated VM: the runtime
    samples gauges once per quantum and bumps counters (the pause
    totals in [Gcperf_gc.Gc_ctx.record_pause], the distillation taxes in
    [Vm.step]), and consumers — experiments, the CLI [trace]
    subcommand — read the metric series back out.  Pauses and their
    phases are not kept here: they live in the VM's
    {!Gcperf_sim.Gc_event} log whether telemetry is on or off, and
    {!Sink} renders traces and their histograms from that log.

    {b Non-perturbation invariant}: telemetry only observes.  Recording
    never advances the virtual clock, draws from a PRNG or touches the
    heap model, so a run with telemetry enabled is byte-identical (in
    simulated time, GC events and artifacts) to the same run with it
    disabled.  A disabled registry turns every record into a cheap
    no-op, which is what keeps the young-GC hot path within the <5%
    overhead budget.

    [default_enabled] is the process-wide default used when a VM is
    created without an explicit registry — experiments leave it off. *)

type t

val set_default_enabled : bool -> unit

val default_enabled : unit -> bool
(** Initially [false]. *)

val create : ?enabled:bool -> unit -> t
(** [enabled] defaults to {!default_enabled}. *)

val disabled : unit -> t
(** A registry that records nothing (shared constant). *)

val enabled : t -> bool

val incr : t -> string -> float -> unit
(** Counter bump (no-op when disabled). *)

val metrics : t -> Metrics.t
(** The counters and gauge series.  Writers that bypass {!incr} (the
    interned handles of {!Metrics}) check {!enabled} themselves. *)

val clear : t -> unit
(** Drops every counter and gauge series. *)
