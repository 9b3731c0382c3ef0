(** Counters and sampled gauges.

    A tiny metrics registry: monotonic float counters ([incr]) and gauge
    time series ([sample], one [(t_us, value)] point per observation —
    the runtime samples heap occupancy and allocation/promotion rates
    once per mutator quantum).  Names are registered on first use and
    iterated in registration order, so exports are deterministic. *)

type t

val create : unit -> t

val incr : t -> string -> float -> unit
(** Add to a counter (created at 0 on first use). *)

type handle
(** A counter interned once, so that a bump is one array write instead
    of a hash of its name. *)

val handle : t -> string -> handle
(** Names the counter without registering it: it is registered by its
    first {!bump}, exactly as by its first {!incr}. *)

val bump : handle -> float -> unit
(** [bump (handle t name) by] is [incr t name by]. *)

val value : handle -> float
(** [value (handle t name)] is [counter t name]. *)

val counter : t -> string -> float
(** Current counter value; 0 for an unknown name. *)

val counter_names : t -> string list
(** In registration order. *)

val sample : t -> string -> t_us:float -> float -> unit
(** Append one point to a gauge series (created on first use). *)

val series : t -> string -> (float * float) array
(** All samples of a gauge, in recording order; [|]] for unknown names. *)

val series_names : t -> string list
(** In registration order. *)

type gauge
(** A gauge interned once, so that a sample is one push instead of a
    hash of its name. *)

val gauge : t -> string -> gauge
(** Names the gauge without registering it: it is registered by its
    first {!observe}, exactly as by its first {!sample}. *)

val observe : gauge -> t_us:float -> float -> unit
(** [observe (gauge t name) ~t_us v] is [sample t name ~t_us v]. *)

val clear : t -> unit
