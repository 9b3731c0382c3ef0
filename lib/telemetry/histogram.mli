(** HDR-style log-bucketed histogram.

    Records non-negative samples (conventionally durations in
    microseconds) into log-linear buckets: values are quantised to
    integer units (1/1000 of the input unit), bucketed exactly below
    [2 * sub_count] units and with [sub_count] linear sub-buckets per
    power of two above it, giving a relative quantisation error bounded
    by [1 / sub_count] (< 0.8%) over the whole range.

    [min], [max], [count] and [sum] (hence [mean]) are tracked exactly;
    percentiles are exact up to the bucket resolution.  Two histograms
    with the same bucket layout (there is only one layout) can be merged
    bucket-wise, so per-shard recordings aggregate without re-reading
    samples. *)

type t

val create : unit -> t

val record : t -> float -> unit
(** Record one sample.  Negative samples are clamped to 0. *)

val count : t -> int

val is_empty : t -> bool

val min : t -> float
(** Smallest recorded sample, exactly.  0 when empty. *)

val max : t -> float
(** Largest recorded sample, exactly.  0 when empty. *)

val sum : t -> float

val mean : t -> float
(** 0 when empty. *)

val percentile : t -> float -> float
(** [percentile t p] for [p] in \[0, 100\]: the nearest-rank quantile,
    resolved to the midpoint of its bucket and clamped to
    [\[min t, max t\]] (so [percentile t 100. = max t] exactly).
    0 when empty.  @raise Invalid_argument if [p] is out of range. *)

val merge_into : into:t -> t -> unit
(** Add every bucket (and the exact count/sum/min/max) of the second
    histogram into [into].  The source is unchanged. *)

val clear : t -> unit
