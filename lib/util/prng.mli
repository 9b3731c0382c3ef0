(** Deterministic pseudo-random number generation.

    All stochastic behaviour in the simulator flows through this module so
    that every experiment is reproducible from a seed.  The generator is
    SplitMix64 (Steele, Lea & Flood, OOPSLA'14): tiny state, excellent
    statistical quality for simulation purposes, and cheap splitting, which
    lets every mutator thread own an independent stream. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a generator from a 63-bit seed. *)

val split : t -> t
(** [split t] derives an independent generator; [t] advances. *)

val copy : t -> t
(** [copy t] duplicates the current state without advancing [t]. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)].  Requires [n > 0]. *)

val unit_float : t -> float
(** [unit_float t] is uniform in [\[0, 1)], 53 bits of precision.
    Consumes one 64-bit draw; [float t 1.0] is the same value from the
    same stream position. *)

val float : t -> float -> float
(** [float t x] is uniform in [\[0, x)]. *)

val bool : t -> bool
(** Fair coin. *)

val chance : t -> float -> bool
(** [chance t p] is [true] with probability [p] (clamped to [\[0,1\]]). *)

val exponential : t -> float -> float
(** [exponential t mean] samples Exp with the given mean. *)

val lognormal : t -> mu:float -> sigma:float -> float
(** Log-normal variate; [mu]/[sigma] are parameters of the underlying
    normal distribution. *)

val gaussian : t -> mean:float -> stddev:float -> float
(** Normal variate via Box-Muller. *)

val zipf : t -> n:int -> theta:float -> int
(** [zipf t ~n ~theta] samples a rank in [\[0, n)] with Zipfian skew
    [theta] (YCSB's request distribution).  Uses the rejection-inversion
    method of Hörmann, accurate for large [n] without O(n) tables. *)
