(** GC event log.

    The equivalent of the JVM's [gc.log]: one record per collection (or
    concurrent-phase pause), carrying enough detail to regenerate every
    pause-time chart and statistic in the paper, together with the
    phases the cost model charged to it.  This is the only pause record:
    traces, CSV exports and the cost distillation are all rendered from
    it. *)

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

(** What a pause's time was charged to: time-to-safepoint, root
    scanning, card/remembered-set scanning, marking, copying, promotion,
    sweeping, compaction, and so on. *)
type phase =
  | Safepoint  (** bringing all mutator threads to the safepoint *)
  | Root_scan
  | Card_scan  (** card-table / remembered-set scanning *)
  | Mark
  | Copy  (** survivor copying *)
  | Promote
  | Sweep
  | Compact
  | Region_overhead  (** G1 per-region constant work *)
  | Fixed  (** fixed dispatch overhead of any collection *)
  | Plan  (** relocation planning (a sub-phase; see {!sub}) *)
  | Move  (** relocation column/slice moving (a sub-phase) *)
  | Remap  (** pauseless remap flip: healing leftover forwarded refs *)
  | Fold  (** journaled-RC flip: applying folded journal deltas *)

val phase_to_string : phase -> string

val all_phases : phase list
(** Every phase, in CSV column order ({!Plan}/{!Move} excluded: they are
    sub-phase attributions, not charged phases). *)

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
(** Mutable event log.  Struct-of-arrays internally: recording a pause
    and its phases on the collectors' exit path builds no list, tuple or
    record in the host runtime, and the [event] record view is
    materialised only by the cold accessors. *)

val create : unit -> t

val phase : t -> phase -> float -> unit
(** [phase t p us] charges [us] to phase [p] of the pause the next
    {!record} closes.  Phases keep their charge order, and a phase
    charged 0 is still listed.  Write a pause's entries just before its
    {!record}, so that an exception in between cannot leave them to the
    next pause. *)

val sub : t -> phase -> float -> unit
(** Like {!phase}, but for a sub-phase attribution ({!Plan}/{!Move}
    splits of relocation phases).  Informational only: sub entries
    re-slice time already charged, so they are not part of the
    duration. *)

val record :
  t ->
  start_us:float ->
  kind:pause_kind ->
  collector:string ->
  reason:string ->
  young_before:int ->
  young_after:int ->
  old_before:int ->
  old_after:int ->
  promoted:int ->
  float
(** Closes the pause whose phases were charged since the previous
    [record], without boxing an {!event}, and returns its duration: the
    sum of its charged phases, added in charge order starting from
    [0.0]. *)

val events : t -> event list
(** Events in chronological order. *)

val nth : t -> int -> event
(** The [i]th pause, [0 <= i < count t]. *)

val phases : t -> int -> (phase * float) list
(** The charged phases of the [i]th pause (µs), in charge order. *)

val subs : t -> int -> (phase * float) list
(** The sub-phase attributions of the [i]th pause (µs), in the order
    they were written. *)

val phase_us : t -> int -> phase -> float
(** Time the [i]th pause charged to one phase, summed from [0.0]; 0 when
    the pause has no such phase. *)

val sub_us : t -> int -> phase -> float
(** Like {!phase_us}, over the sub-phase attributions. *)

val count : t -> int

val count_full : t -> int

val max_pause_s : t -> float
(** 0 when the log is empty. *)

val intervals : t -> (float * float) array
(** [(start_s, end_s)] of every stop-the-world pause, chronological;
    this is what the YCSB client simulation overlays on request arrivals. *)

val pp_event : Format.formatter -> event -> unit
