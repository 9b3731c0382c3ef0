module P = Policy

type goals = { pause_goal_ms : float; gc_time_ratio : int }

type config = {
  goals : goals;
  limits : P.limits;
  initial_young_bytes : int;
  initial_survivor_ratio : int;
  initial_tenuring_threshold : int;
}

(* Percent weight of a new sample in the decaying averages (HotSpot's
   AdaptiveSizePolicyWeight). *)
let avg_weight = 25

(* Grow step (HotSpot grows the young generation by ~20%) and shrink
   step (the increment over AdaptiveSizeDecrementScaleFactor = 4). *)
let increment_frac = 0.20
let decrement_frac = 0.05

(* Deviations added to the decayed pause average when comparing against
   the pause goal (AdaptivePaddedAverage's padding): the goal then bounds
   the pause tail, not its mean. *)
let pause_padding = 3.0

let default_config ~heap_bytes ~young_bytes ~survivor_ratio ~tenuring_threshold
    ~pause_goal_ms ~gc_time_ratio =
  {
    goals = { pause_goal_ms; gc_time_ratio };
    limits = P.default_limits ~heap_bytes;
    initial_young_bytes = young_bytes;
    initial_survivor_ratio = survivor_ratio;
    initial_tenuring_threshold = tenuring_threshold;
  }

type state = {
  cfg : config;
  mutable cur_young : int;
  mutable cur_ratio : int;
  mutable cur_tenuring : int;
  avg_minor_pause : P.Avg.avg;
  avg_major_pause : P.Avg.avg;
  avg_interval : P.Avg.avg;
  avg_promoted : P.Avg.avg;
  mutable overflow_streak : int;
  mutable calm_streak : int;
  mutable pending : P.decision option;
  mutable observations : int;
  mutable minors : int;
  mutable decisions : int;
  mutable grows : int;
  mutable shrinks : int;
  mutable tenuring_changes : int;
  mutable ratio_changes : int;
  mutable trajectory_rev : P.trajectory_point list;
}

let gc_cost st =
  let p = P.Avg.value st.avg_minor_pause
  and i = P.Avg.value st.avg_interval in
  if p +. i <= 0.0 then 0.0 else p /. (p +. i)

(* Survivor pressure: repeated overflow first promotes earlier (lower
   tenuring threshold, as HotSpot does when survivors are too full), then
   widens the survivor spaces (lower ratio).  Sustained calm restores the
   threshold toward its configured value. *)
let survivor_adjustment st =
  if st.overflow_streak >= 2 then begin
    st.overflow_streak <- 0;
    if st.cur_tenuring > 1 then Some (`Tenuring (st.cur_tenuring - 1))
    else if st.cur_ratio > st.cfg.limits.P.min_survivor_ratio then
      Some (`Ratio (st.cur_ratio - 1))
    else None
  end
  else if st.calm_streak >= 8 && st.cur_tenuring < st.cfg.initial_tenuring_threshold
  then begin
    st.calm_streak <- 0;
    Some (`Tenuring (st.cur_tenuring + 1))
  end
  else None

let young_adjustment st =
  (* Goals in HotSpot priority order; each returns a target young size.
     The pause goal is serviced on the {e padded} average (decayed mean
     plus padded deviation): comparing the mean alone settles into a
     limit cycle whose pause tail overshoots the goal by the grow step,
     while the padded estimate keeps the tail itself inside the goal. *)
  let padded_pause =
    P.Avg.padded st.avg_minor_pause ~padding:pause_padding
  in
  let goal = st.cfg.goals.pause_goal_ms in
  let cost_goal = 1.0 /. (1.0 +. float_of_int st.cfg.goals.gc_time_ratio) in
  let scale f = int_of_float (float_of_int st.cur_young *. f) in
  if padded_pause > goal then
    Some (scale (1.0 -. (decrement_frac *. 4.0)))
  else if gc_cost st > cost_goal then
    (* Grow for throughput only while the projected pause (one grow step
       lengthens pauses roughly proportionally) stays inside the goal;
       otherwise hold — the workload cannot meet both goals and the
       pause goal has priority. *)
    if padded_pause *. (1.0 +. increment_frac) <= goal then
      Some (scale (1.0 +. increment_frac))
    else None
  else Some (scale (1.0 -. decrement_frac))

let on_minor st (obs : P.observation) =
  st.minors <- st.minors + 1;
  P.Avg.update st.avg_minor_pause obs.P.pause_ms;
  P.Avg.update st.avg_interval obs.P.interval_ms;
  P.Avg.update st.avg_promoted (float_of_int obs.P.promoted_bytes);
  st.cur_young <- obs.P.young_capacity;
  st.trajectory_rev <-
    {
      P.at_collection = st.minors;
      young_bytes_now = obs.P.young_capacity;
      observed_pause_ms = obs.P.pause_ms;
      avg_pause_ms = P.Avg.value st.avg_minor_pause;
    }
    :: st.trajectory_rev;
  if obs.P.survivor_overflow then begin
    st.overflow_streak <- st.overflow_streak + 1;
    st.calm_streak <- 0
  end
  else begin
    st.calm_streak <- st.calm_streak + 1;
    if st.overflow_streak > 0 then st.overflow_streak <- 0
  end;
  (* Need a couple of samples before the averages mean anything. *)
  if st.minors >= 2 then begin
    let survivor = survivor_adjustment st in
    let young = young_adjustment st in
    let d =
      {
        P.no_decision with
        P.young_bytes = young;
        tenuring_threshold =
          (match survivor with Some (`Tenuring t) -> Some t | _ -> None);
        survivor_ratio =
          (match survivor with Some (`Ratio r) -> Some r | _ -> None);
      }
    in
    let d = P.clamp_decision st.cfg.limits ~current_young:st.cur_young d in
    (* Drop fields that would change nothing after clamping. *)
    let d =
      {
        d with
        P.young_bytes =
          (match d.P.young_bytes with
          | Some y when y = st.cur_young -> None
          | other -> other);
        survivor_ratio =
          (match d.P.survivor_ratio with
          | Some r when r = st.cur_ratio -> None
          | other -> other);
        tenuring_threshold =
          (match d.P.tenuring_threshold with
          | Some t when t = st.cur_tenuring -> None
          | other -> other);
      }
    in
    if not (P.is_noop d) then st.pending <- Some d
  end

let observe st (obs : P.observation) =
  st.observations <- st.observations + 1;
  match obs.P.pause_class with
  | P.Concurrent -> ()
  | P.Major -> P.Avg.update st.avg_major_pause obs.P.pause_ms
  | P.Minor -> on_minor st obs

let decide st () =
  match st.pending with
  | None -> None
  | Some d ->
      st.pending <- None;
      st.decisions <- st.decisions + 1;
      (match d.P.young_bytes with
      | Some y when y > st.cur_young -> st.grows <- st.grows + 1
      | Some _ -> st.shrinks <- st.shrinks + 1
      | None -> ());
      Some d

let applied st (d : P.decision) =
  (match d.P.young_bytes with Some y -> st.cur_young <- y | None -> ());
  (match d.P.survivor_ratio with
  | Some r when r <> st.cur_ratio ->
      st.cur_ratio <- r;
      st.ratio_changes <- st.ratio_changes + 1
  | _ -> ());
  match d.P.tenuring_threshold with
  | Some t when t <> st.cur_tenuring ->
      st.cur_tenuring <- t;
      st.tenuring_changes <- st.tenuring_changes + 1
  | _ -> ()

let stats st () =
  {
    P.observations = st.observations;
    decisions = st.decisions;
    grows = st.grows;
    shrinks = st.shrinks;
    tenuring_changes = st.tenuring_changes;
    ratio_changes = st.ratio_changes;
    cur_young_bytes = st.cur_young;
    cur_survivor_ratio = st.cur_ratio;
    cur_tenuring_threshold = st.cur_tenuring;
    avg_minor_pause_ms = P.Avg.value st.avg_minor_pause;
    avg_major_pause_ms = P.Avg.value st.avg_major_pause;
    avg_interval_ms = P.Avg.value st.avg_interval;
    gc_cost = gc_cost st;
  }

let create cfg =
  let st =
    {
      cfg;
      cur_young = cfg.initial_young_bytes;
      cur_ratio = cfg.initial_survivor_ratio;
      cur_tenuring = cfg.initial_tenuring_threshold;
      avg_minor_pause = P.Avg.create ~weight:avg_weight;
      avg_major_pause = P.Avg.create ~weight:avg_weight;
      avg_interval = P.Avg.create ~weight:avg_weight;
      avg_promoted = P.Avg.create ~weight:avg_weight;
      overflow_streak = 0;
      calm_streak = 0;
      pending = None;
      observations = 0;
      minors = 0;
      decisions = 0;
      grows = 0;
      shrinks = 0;
      tenuring_changes = 0;
      ratio_changes = 0;
      trajectory_rev = [];
    }
  in
  {
    P.name = "adaptive-size-policy";
    observe = observe st;
    decide = decide st;
    applied = applied st;
    stats = stats st;
    trajectory = (fun () -> List.rev st.trajectory_rev);
  }
