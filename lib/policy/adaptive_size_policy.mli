(** HotSpot-style adaptive size policy ([-XX:+UseAdaptiveSizePolicy]).

    Keeps decaying weighted averages of minor/major pause time and of the
    mutator interval between minor collections, and services three goals
    in HotSpot's priority order:

    + {b Pause goal} — while the decayed minor pause exceeds
      [pause_goal_ms], shrink the young generation (smaller eden means
      fewer bytes survive each collection, so pauses shorten at the cost
      of collecting more often).
    + {b Throughput goal} — once pauses meet the goal, grow the young
      generation while the decayed GC cost
      [pause / (pause + interval)] exceeds [1/(1 + gc_time_ratio)]
      (HotSpot's [-XX:GCTimeRatio]).
    + {b Footprint goal} — with both goals met, shrink by the small
      decrement so an over-provisioned young generation is given back.

    Survivor pressure is handled separately: a streak of survivor
    overflows first lowers the tenuring threshold (promote earlier); if
    the threshold is already at its floor, the survivor ratio is lowered
    (bigger survivor spaces).  A long calm streak raises the threshold
    back toward its configured value.

    Grow steps are 20% (HotSpot grows the young generation by ~20%);
    shrink steps are 5% (HotSpot shrinks by the increment divided by
    [AdaptiveSizeDecrementScaleFactor] = 4).  The decaying averages weigh
    a new sample at 25% ([AdaptiveSizePolicyWeight]), and the pause goal
    is compared against the average padded by three deviations
    ([AdaptivePaddedAverage]), so the goal bounds the pause tail, not its
    mean.  All decisions pass through {!Policy.clamp_decision}. *)

type goals = {
  pause_goal_ms : float;
  gc_time_ratio : int;
      (** target GC cost is [1 /. (1 + gc_time_ratio)], as in HotSpot *)
}

type config = {
  goals : goals;
  limits : Policy.limits;
  initial_young_bytes : int;
  initial_survivor_ratio : int;
  initial_tenuring_threshold : int;
}

val default_config :
  heap_bytes:int ->
  young_bytes:int ->
  survivor_ratio:int ->
  tenuring_threshold:int ->
  pause_goal_ms:float ->
  gc_time_ratio:int ->
  config

val create : config -> Policy.t
