let mean xs =
  let n = Array.length xs in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 xs /. float_of_int n

let variance xs =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let m = mean xs in
    let acc = ref 0.0 in
    Array.iter
      (fun x ->
        let d = x -. m in
        acc := !acc +. (d *. d))
      xs;
    !acc /. float_of_int n
  end

let stddev xs = sqrt (variance xs)

let rsd xs =
  let m = mean xs in
  if m = 0.0 then 0.0 else 100.0 *. stddev xs /. m

let min_max xs =
  if Array.length xs = 0 then invalid_arg "Stats.min_max: empty";
  Array.fold_left
    (fun (lo, hi) x -> (Float.min lo x, Float.max hi x))
    (xs.(0), xs.(0))
    xs

let sum = Array.fold_left ( +. ) 0.0

let percentile xs p =
  if Array.length xs = 0 then invalid_arg "Stats.percentile: empty";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let n = Array.length sorted in
  if n = 1 then sorted.(0)
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end

let median xs = percentile xs 50.0

type histogram = {
  lo : float;
  width : float;
  counts : int array;
  total : int;
  overflow : int;
  underflow : int;
}

let histogram ?(buckets = 20) ~lo ~hi xs =
  if buckets <= 0 then invalid_arg "Stats.histogram: buckets <= 0";
  if hi <= lo then invalid_arg "Stats.histogram: hi <= lo";
  let width = (hi -. lo) /. float_of_int buckets in
  let counts = Array.make buckets 0 in
  let overflow = ref 0 and underflow = ref 0 in
  Array.iter
    (fun x ->
      if x < lo then incr underflow
      else if x >= hi then incr overflow
      else begin
        let b = int_of_float ((x -. lo) /. width) in
        let b = min b (buckets - 1) in
        counts.(b) <- counts.(b) + 1
      end)
    xs;
  {
    lo;
    width;
    counts;
    total = Array.length xs;
    overflow = !overflow;
    underflow = !underflow;
  }

type band = { label : string; pct_requests : float; pct_gc : float }

type latency_report = {
  avg_ms : float;
  max_ms : float;
  min_ms : float;
  around_avg : band;
  above : band list;
}

(* One moments pass plus one band pass, instead of a fresh O(n) scan per
   band (the >2^n bands alone used to cost 4-6 scans of a 100k-point
   array).  Same floats as the scan-per-band version: the average keeps
   the left-to-right summation order, and each band's membership test is
   the identical comparison, just evaluated once per point against the
   largest multiplier it clears. *)
let max_above_bands = 11 (* bands n=1..10 can be emitted; n=11 never is *)

let latency_report points =
  if Array.length points = 0 then invalid_arg "Stats.latency_report: empty";
  let total = Array.length points in
  let sum = ref 0.0 in
  let lo = ref (fst points.(0)) and hi = ref (fst points.(0)) in
  Array.iter
    (fun (l, _) ->
      sum := !sum +. l;
      lo := Float.min !lo l;
      hi := Float.max !hi l)
    points;
  let avg = !sum /. float_of_int total in
  (* cnt.(m): points whose largest cleared band is [> 2^m x AVG] (m = 0
     when the point clears none).  Clearing is monotone in m because the
     thresholds [2^m *. avg] are non-decreasing, so a point is in band n
     iff its m is >= n, and suffix sums recover every band's count. *)
  let cnt = Array.make (max_above_bands + 2) 0 in
  let gcnt = Array.make (max_above_bands + 2) 0 in
  let around = ref 0 and around_gc = ref 0 in
  Array.iter
    (fun (l, is_gc) ->
      if l >= 0.5 *. avg && l <= 1.5 *. avg then begin
        Stdlib.incr around;
        if is_gc then Stdlib.incr around_gc
      end;
      let m = ref 0 in
      while
        !m < max_above_bands
        && l > Float.of_int (1 lsl (!m + 1)) *. avg
      do
        Stdlib.incr m
      done;
      cnt.(!m) <- cnt.(!m) + 1;
      if is_gc then gcnt.(!m) <- gcnt.(!m) + 1)
    points;
  for m = max_above_bands downto 1 do
    cnt.(m) <- cnt.(m) + cnt.(m + 1);
    gcnt.(m) <- gcnt.(m) + gcnt.(m + 1)
  done;
  let band ~label in_band gc =
    {
      label;
      pct_requests = 100.0 *. float_of_int in_band /. float_of_int total;
      pct_gc =
        (if in_band = 0 then 0.0
         else 100.0 *. float_of_int gc /. float_of_int in_band);
    }
  in
  let around_avg = band ~label:"0.5x-1.5x AVG" !around !around_gc in
  (* Generate >2^n x AVG bands until the request share vanishes, as the
     paper does ("until the percentage of points became too close to 0"). *)
  let rec bands n acc =
    let mult = Float.of_int (1 lsl n) in
    let b =
      band ~label:(Printf.sprintf ">%.0fx AVG" mult) cnt.(n) gcnt.(n)
    in
    if b.pct_requests < 0.001 || n > 10 then List.rev acc
    else bands (n + 1) (b :: acc)
  in
  {
    avg_ms = avg;
    max_ms = !hi;
    min_ms = !lo;
    around_avg;
    above = bands 1 [];
  }

let top_k_by f k xs =
  if k <= 0 then []
  else begin
    let arr = Array.of_list xs in
    let n = Array.length arr in
    if n <= k then xs
    else begin
      let keyed = Array.mapi (fun i x -> (f x, i, x)) arr in
      Array.sort
        (fun (a, i, _) (b, j, _) ->
          match compare b a with 0 -> compare i j | c -> c)
        keyed;
      let kept = Array.sub keyed 0 k in
      Array.sort (fun (_, i, _) (_, j, _) -> compare i j) kept;
      Array.to_list (Array.map (fun (_, _, x) -> x) kept)
    end
  end
