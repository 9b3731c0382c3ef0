(** Export sinks, rendered from a run's pause log and its telemetry
    registry.

    Three output shapes: a JSON Lines trace (one [pause] record per
    logged pause with its phases, then one [summary] record per pause
    kind plus a time-to-safepoint summary — the [gcperf trace] format),
    flat CSV (pauses or gauge series), and a single JSON percentile
    summary.  Histograms are built at render time. *)

type summary
(** Per-pause-kind duration histograms (µs) in first-seen order, and
    the time-to-safepoint histogram over pauses that charged one. *)

val summarise : Gcperf_sim.Gc_event.t -> summary

val merged : summary list -> summary
(** Merges the summaries bucket-wise, in list order, into a fresh one:
    kinds keep their first-seen order across the list. *)

val summary_json : summary -> string
(** One JSON object: per-pause-kind count/mean/p50/p90/p99/p99.9/max
    (µs) and the same for time-to-safepoint. *)

val trace_jsonl : Gcperf_sim.Gc_event.t -> string
(** JSON Lines: every pause in order ([type=pause]) with its phases in
    charge order and its plan/move [sub] attributions when it has any,
    then one [type=summary] line per pause kind and a
    [type=safepoint-summary] line.  Ends with a newline when
    non-empty. *)

val pauses_csv : Gcperf_sim.Gc_event.t -> string
(** Header plus one row per pause: one column per
    {!Gcperf_sim.Gc_event.all_phases} entry, then plan and move. *)

val metrics_csv : Telemetry.t -> string
(** Long format: [series,t_us,value] for every gauge sample, then
    [counter,,value] rows for every counter. *)
