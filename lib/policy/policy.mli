(** Ergonomics policy interface.

    A policy closes the feedback loop HotSpot calls {e ergonomics}: it
    observes one {!observation} per stop-the-world collection (fed by
    [Gc_ctx.record_pause], so all six collectors report the same signals)
    and may leave one pending {!decision} — a bounded resize of the young
    generation, survivor ratio, tenuring threshold, or G1 young region
    target.  Decisions are {e not} applied where they are made: the
    runtime consumes the pending decision at the next safepoint
    ([Vm.step]), which keeps simulated runs deterministic and
    byte-identical across worker counts.

    The interface is first-class (a record of closures) so collectors and
    the runtime depend only on this module, not on any concrete policy. *)

type pause_class =
  | Minor  (** young and mixed collections *)
  | Major  (** full collections *)
  | Concurrent  (** concurrent-cycle pauses: initial-mark, remark, cleanup *)

(** Fields are mutable so the per-pause driver can reuse one scratch
    record rather than allocate per collection; [observe] implementations
    must copy what they keep during the call and never retain the record
    itself. *)
type observation = {
  mutable pause_class : pause_class;
  mutable pause_ms : float;
      (** stop-the-world duration of this collection *)
  mutable interval_ms : float;
      (** mutator time since the end of the previous pause *)
  mutable promoted_bytes : int;
      (** bytes promoted to the old generation *)
  mutable survived_bytes : int;
      (** young bytes surviving the collection *)
  mutable survivor_overflow : bool;
      (** at least one object was promoted early because the survivor
          space (or budget) could not hold it *)
  mutable young_capacity : int;
      (** current young-generation capacity in bytes *)
  mutable heap_used : int;  (** heap occupancy after the collection *)
  mutable heap_capacity : int;  (** total committed heap *)
}

val scratch_observation : unit -> observation
(** A fresh all-zero observation for drivers that overwrite the fields
    in place each pause. *)

type decision = {
  young_bytes : int option;  (** new young-generation size *)
  survivor_ratio : int option;  (** new eden/survivor ratio *)
  tenuring_threshold : int option;  (** new promotion age threshold *)
  region_target : int option;
      (** new G1 young target, in regions (region collectors only) *)
}

val no_decision : decision

val is_noop : decision -> bool

type limits = {
  min_young_bytes : int;
  max_young_bytes : int;
  min_survivor_ratio : int;
  max_survivor_ratio : int;
  max_tenuring_threshold : int;
  max_step_frac : float;
      (** bound on a single young-generation step, as a fraction of the
          current capacity (HotSpot resizes by bounded increments, never
          jumps) *)
}

val default_limits : heap_bytes:int -> limits
(** Young generation confined to [heap/64 .. heap*3/5] (at least 1 MB),
    survivor ratio to [1 .. 32], tenuring threshold to HotSpot's max of
    15, and any single step to 25% of the current young size. *)

val clamp_decision : limits -> current_young:int -> decision -> decision
(** Applies {!limits} to a raw decision: young sizes are clamped to the
    allowed range and to one bounded step from [current_young]; ratio and
    threshold are clamped to their ranges.  Fields that end up equal to no
    change are preserved (the heap layer re-clamps against occupancy). *)

(** Aggregate counters a policy maintains, for artifacts and tests. *)
type stats = {
  observations : int;
  decisions : int;
  grows : int;  (** young-generation grow decisions *)
  shrinks : int;  (** young-generation shrink decisions *)
  tenuring_changes : int;
  ratio_changes : int;
  cur_young_bytes : int;
  cur_survivor_ratio : int;
  cur_tenuring_threshold : int;
  avg_minor_pause_ms : float;
  avg_major_pause_ms : float;
  avg_interval_ms : float;
  gc_cost : float;  (** decayed pause / (pause + interval) *)
}

type trajectory_point = {
  at_collection : int;  (** minor-collection ordinal, 1-based *)
  young_bytes_now : int;  (** young capacity when the pause was observed *)
  observed_pause_ms : float;
  avg_pause_ms : float;  (** decayed average after this observation *)
}

type t = {
  name : string;
  observe : observation -> unit;
  decide : unit -> decision option;
      (** takes the pending decision, clearing it; [None] when the policy
          is satisfied with the current configuration *)
  applied : decision -> unit;
      (** feedback after the heap applied (a possibly further-clamped
          version of) a decision, so the policy tracks reality rather than
          its requests *)
  stats : unit -> stats;
  trajectory : unit -> trajectory_point list;
      (** convergence trajectory, one point per minor collection *)
}

(** Decaying weighted average, after HotSpot's [AdaptiveWeightedAverage]:
    new samples get [weight] (a percentage); earlier samples decay
    geometrically.  While fewer than [100/weight] samples have arrived the
    effective weight is boosted so the average tracks the sample mean
    instead of the zero initial value. *)
module Avg : sig
  type avg

  val create : weight:int -> avg
  (** [weight] percent given to each new sample once warmed up. *)

  val update : avg -> float -> unit

  val value : avg -> float

  val padded : avg -> padding:float -> float
  (** [value + padding * deviation] — HotSpot's [AdaptivePaddedAverage],
      a cheap decayed upper estimate of the sample distribution's tail.
      Comparing goals against the padded value instead of the plain
      average is what keeps the {e tail} of the pauses inside the goal
      rather than just their mean. *)

  val count : avg -> int
end
