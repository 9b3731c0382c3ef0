(** Descriptive statistics used by the study.

    The paper reports means, relative standard deviations (Table 2),
    pause-time aggregates (Table 3) and latency-bucket breakdowns
    (Tables 5-7); this module implements all of them over plain float
    arrays. *)

val mean : float array -> float
(** Arithmetic mean; 0 for the empty array. *)

val variance : float array -> float
(** Population variance (the study compares runs of a fixed, known size). *)

val rsd : float array -> float
(** Relative standard deviation in percent: [100 * stddev / mean].
    0 when the mean is 0. *)

val min_max : float array -> float * float
(** @raise Invalid_argument on the empty array. *)

val sum : float array -> float

val percentile : float array -> float -> float
(** [percentile xs p] for [p] in [\[0,100\]], linear interpolation between
    order statistics.  @raise Invalid_argument on the empty array. *)

val median : float array -> float

(** {1 Histograms} *)

type histogram = {
  lo : float;  (** lower bound of the first bucket *)
  width : float;  (** bucket width *)
  counts : int array;
  total : int;
  overflow : int;  (** samples above the last bucket *)
  underflow : int;  (** samples below [lo] *)
}

val histogram : ?buckets:int -> lo:float -> hi:float -> float array -> histogram

(** {1 Latency buckets (Tables 5-7)}

    For each operation the client records its latency and whether it
    overlapped a server GC pause.  The paper then reports, for the band
    0.5x-1.5x of the average and for each band >2{^n}x of the average:
    the percentage of requests falling in the band ([%reqs]) and the
    percentage of those requests that are GC-correlated ([%GCs]). *)

type band = {
  label : string;
  pct_requests : float;  (** share of all requests in this band, percent *)
  pct_gc : float;  (** share of the band's requests that overlap a GC *)
}

type latency_report = {
  avg_ms : float;
  max_ms : float;
  min_ms : float;
  around_avg : band;  (** the 0.5x-1.5x AVG band *)
  above : band list;  (** >2x, >4x, >8x, ... until the band empties *)
}

val latency_report : (float * bool) array -> latency_report
(** [latency_report points] where each point is [(latency_ms,
    gc_correlated)].  Bands [>2{^n}x AVG] are generated for n = 1, 2, ...
    until the share of requests drops below 0.001 % (mirroring the paper's
    "we only increased n until the percentage of points became too close
    to 0").  @raise Invalid_argument on the empty array. *)

(** {1 Series helpers} *)

val top_k_by : ('a -> float) -> int -> 'a list -> 'a list
(** [top_k_by f k xs] keeps the [k] elements with the largest [f] value
    (the paper plots only the highest 10000 latency points), preserving
    the original relative order of the survivors. *)
