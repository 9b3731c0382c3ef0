type pause_class = Minor | Major | Concurrent

(* Fields are mutable so the per-pause driver (Gc_ctx) can reuse one
   scratch record instead of allocating an observation on every
   collection; [observe] implementations must read the fields during the
   call (every shipped policy copies what it keeps into its own
   averages/trajectory immediately). *)
type observation = {
  mutable pause_class : pause_class;
  mutable pause_ms : float;
  mutable interval_ms : float;
  mutable promoted_bytes : int;
  mutable survived_bytes : int;
  mutable survivor_overflow : bool;
  mutable young_capacity : int;
  mutable heap_used : int;
  mutable heap_capacity : int;
}

let scratch_observation () =
  {
    pause_class = Minor;
    pause_ms = 0.0;
    interval_ms = 0.0;
    promoted_bytes = 0;
    survived_bytes = 0;
    survivor_overflow = false;
    young_capacity = 0;
    heap_used = 0;
    heap_capacity = 0;
  }

type decision = {
  young_bytes : int option;
  survivor_ratio : int option;
  tenuring_threshold : int option;
  region_target : int option;
}

let no_decision =
  {
    young_bytes = None;
    survivor_ratio = None;
    tenuring_threshold = None;
    region_target = None;
  }

let is_noop d =
  d.young_bytes = None
  && d.survivor_ratio = None
  && d.tenuring_threshold = None
  && d.region_target = None

type limits = {
  min_young_bytes : int;
  max_young_bytes : int;
  min_survivor_ratio : int;
  max_survivor_ratio : int;
  max_tenuring_threshold : int;
  max_step_frac : float;
}

let mb = 1024 * 1024

let default_limits ~heap_bytes =
  {
    min_young_bytes = max mb (heap_bytes / 64);
    max_young_bytes = max mb (heap_bytes * 3 / 5);
    min_survivor_ratio = 1;
    max_survivor_ratio = 32;
    max_tenuring_threshold = 15;
    max_step_frac = 0.25;
  }

let clamp lo hi v = max lo (min hi v)

let clamp_decision limits ~current_young d =
  let young_bytes =
    Option.map
      (fun y ->
        let step = int_of_float (float_of_int current_young *. limits.max_step_frac) in
        let step = max 1 step in
        let y = clamp (current_young - step) (current_young + step) y in
        clamp limits.min_young_bytes limits.max_young_bytes y)
      d.young_bytes
  in
  let survivor_ratio =
    Option.map
      (clamp limits.min_survivor_ratio limits.max_survivor_ratio)
      d.survivor_ratio
  in
  let tenuring_threshold =
    Option.map (clamp 1 limits.max_tenuring_threshold) d.tenuring_threshold
  in
  { d with young_bytes; survivor_ratio; tenuring_threshold }

type stats = {
  observations : int;
  decisions : int;
  grows : int;
  shrinks : int;
  tenuring_changes : int;
  ratio_changes : int;
  cur_young_bytes : int;
  cur_survivor_ratio : int;
  cur_tenuring_threshold : int;
  avg_minor_pause_ms : float;
  avg_major_pause_ms : float;
  avg_interval_ms : float;
  gc_cost : float;
}

type trajectory_point = {
  at_collection : int;
  young_bytes_now : int;
  observed_pause_ms : float;
  avg_pause_ms : float;
}

type t = {
  name : string;
  observe : observation -> unit;
  decide : unit -> decision option;
  applied : decision -> unit;
  stats : unit -> stats;
  trajectory : unit -> trajectory_point list;
}

module Avg = struct
  (* HotSpot's AdaptiveWeightedAverage: value' = value + w*(sample-value)
     with w = weight/100, except during warm-up, where the first samples
     use 1/count so the average starts at the sample mean rather than
     decaying up from zero. *)
  type avg = {
    mutable value : float;
    mutable dev : float;
    mutable count : int;
    weight : float;
  }

  let create ~weight =
    if weight <= 0 || weight > 100 then invalid_arg "Policy.Avg.create";
    { value = 0.0; dev = 0.0; count = 0; weight = float_of_int weight /. 100.0 }

  let update a x =
    a.count <- a.count + 1;
    let w = Float.max a.weight (1.0 /. float_of_int a.count) in
    a.value <- a.value +. (w *. (x -. a.value));
    (* Deviation against the updated average, as AdaptivePaddedAverage
       does; it decays with the same weight as the average itself. *)
    a.dev <- a.dev +. (w *. (Float.abs (x -. a.value) -. a.dev))

  let value a = a.value

  let padded a ~padding = a.value +. (padding *. a.dev)

  let count a = a.count
end
