(** GC event log.

    The equivalent of the JVM's [gc.log]: one record per collection (or
    concurrent-phase pause), carrying enough detail to regenerate every
    pause-time chart and statistic in the paper. *)

type pause_kind =
  | Young  (** minor collection of the young generation *)
  | Full  (** stop-the-world collection of the whole heap *)
  | Initial_mark  (** CMS/G1 concurrent cycle start pause *)
  | Remark  (** CMS final remark / G1 remark pause *)
  | Mixed  (** G1 mixed (young + some old regions) collection *)
  | Cleanup  (** G1 cleanup pause *)

val pause_kind_to_string : pause_kind -> string

val is_full : pause_kind -> bool
(** [true] only for {!Full}: the paper's "#pauses (full)" column counts
    stop-the-world whole-heap collections. *)

type event = {
  start_us : float;  (** virtual time at which the pause began *)
  duration_us : float;
  kind : pause_kind;
  collector : string;
  reason : string;  (** "allocation failure", "system.gc", ... *)
  young_before : int;  (** young occupancy before the pause, bytes *)
  young_after : int;
  old_before : int;
  old_after : int;
  promoted : int;  (** bytes promoted to the old generation *)
}

type t
(** Mutable event log.  Struct-of-arrays internally: recording a pause on
    the collectors' exit path allocates nothing in the host runtime, and
    the [event] record view is materialised only by the cold accessors. *)

val create : unit -> t

val record :
  t ->
  start_us:float ->
  duration_us:float ->
  kind:pause_kind ->
  collector:string ->
  reason:string ->
  young_before:int ->
  young_after:int ->
  old_before:int ->
  old_after:int ->
  promoted:int ->
  unit
(** Appends one pause without boxing an {!event}. *)

val events : t -> event list
(** Events in chronological order. *)

val count : t -> int

val count_full : t -> int

val max_pause_s : t -> float
(** 0 when the log is empty. *)

val intervals : t -> (float * float) array
(** [(start_s, end_s)] of every stop-the-world pause, chronological;
    this is what the YCSB client simulation overlays on request arrivals. *)

val pp_event : Format.formatter -> event -> unit
