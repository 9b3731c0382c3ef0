(** Export sinks for a telemetry registry.

    Three output shapes: a JSON Lines trace (one [pause] record per
    span, then one [summary] record per pause kind plus a
    time-to-safepoint summary — the [gcperf trace] format), flat CSV
    (spans or gauge series), and a single JSON percentile summary. *)

val summary_json : Telemetry.t -> string
(** One JSON object: per-pause-kind count/mean/p50/p90/p99/p99.9/max
    (µs) and the same for time-to-safepoint. *)

val trace_jsonl : Telemetry.t -> string
(** JSON Lines: every span in order ([type=pause]), then one
    [type=summary] line per pause kind and a [type=safepoint-summary]
    line.  Ends with a newline when non-empty. *)

val spans_csv : Telemetry.t -> string
(** Header plus one row per span; phase columns in {!Span.csv_header}
    order. *)

val metrics_csv : Telemetry.t -> string
(** Long format: [series,t_us,value] for every gauge sample, then
    [counter,,value] rows for every counter. *)
