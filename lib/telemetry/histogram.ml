(* Log-linear bucketing, HdrHistogram style.

   Samples are scaled to integer units (1000 units per 1.0 of input, so
   microsecond inputs resolve to nanoseconds).  A unit value [v] lands in

   - bucket [v] when [v < 2 * sub_count] (exact, width-1 buckets);
   - otherwise bucket [(shift + 1) * sub_count + (v >> shift) - sub_count]
     where [shift = msb v - sub_bits]: the top [sub_bits + 1] bits select
     a linear sub-bucket inside the value's power-of-two octave.

   The two regions are continuous (at [v = 2 * sub_count - 1] both
   formulas agree) and the relative bucket width above the linear region
   is [1 / sub_count]. *)

let sub_bits = 7
let sub_count = 1 lsl sub_bits (* 128 linear sub-buckets per octave *)
let units_per_one = 1000.0

type t = {
  mutable counts : int array;
  mutable count : int;
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
}

let create () =
  { counts = Array.make 256 0; count = 0; sum = 0.0; min_v = 0.0; max_v = 0.0 }

let clear t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  t.count <- 0;
  t.sum <- 0.0;
  t.min_v <- 0.0;
  t.max_v <- 0.0

let count t = t.count
let is_empty t = t.count = 0
let min t = t.min_v
let max t = t.max_v
let sum t = t.sum
let mean t = if t.count = 0 then 0.0 else t.sum /. float_of_int t.count

let[@inline] msb v =
  (* Position of the highest set bit (floor log2; 0 for v <= 1), by
     binary chop: six compares instead of one shift per bit, and [record]
     calls this once per sample. *)
  let v = ref v and acc = ref 0 in
  if !v >= 1 lsl 32 then begin v := !v lsr 32; acc := !acc + 32 end;
  if !v >= 1 lsl 16 then begin v := !v lsr 16; acc := !acc + 16 end;
  if !v >= 1 lsl 8 then begin v := !v lsr 8; acc := !acc + 8 end;
  if !v >= 1 lsl 4 then begin v := !v lsr 4; acc := !acc + 4 end;
  if !v >= 1 lsl 2 then begin v := !v lsr 2; acc := !acc + 2 end;
  if !v >= 2 then !acc + 1 else !acc

let[@inline] index_of_units v =
  if v < 2 * sub_count then v
  else begin
    let shift = msb v - sub_bits in
    ((shift + 1) * sub_count) + (v lsr shift) - sub_count
  end

(* Inclusive-exclusive unit bounds of bucket [idx]. *)
let bounds_of_index idx =
  if idx < 2 * sub_count then (idx, idx + 1)
  else begin
    let octave = (idx / sub_count) - 1 in
    let rem = idx mod sub_count in
    let lo = (sub_count + rem) lsl octave in
    (lo, lo + (1 lsl octave))
  end

let ensure t idx =
  let n = Array.length t.counts in
  if idx >= n then begin
    let n' = Int.max (idx + 1) (2 * n) in
    let counts = Array.make n' 0 in
    Array.blit t.counts 0 counts 0 n;
    t.counts <- counts
  end

let record t v =
  let v = if v < 0.0 then 0.0 else v in
  let units = int_of_float ((v *. units_per_one) +. 0.5) in
  let idx = index_of_units units in
  ensure t idx;
  t.counts.(idx) <- t.counts.(idx) + 1;
  if t.count = 0 then begin
    t.min_v <- v;
    t.max_v <- v
  end
  else begin
    if v < t.min_v then t.min_v <- v;
    if v > t.max_v then t.max_v <- v
  end;
  t.count <- t.count + 1;
  t.sum <- t.sum +. v

let percentile t p =
  if p < 0.0 || p > 100.0 then invalid_arg "Histogram.percentile: p out of range";
  if t.count = 0 then 0.0
  else if p >= 100.0 then t.max_v
  else begin
    let target =
      let r = int_of_float (ceil (p /. 100.0 *. float_of_int t.count)) in
      Int.max 1 r
    in
    let n = Array.length t.counts in
    let rec find idx acc =
      if idx >= n then t.max_v
      else begin
        let acc = acc + t.counts.(idx) in
        if acc >= target then begin
          let lo, hi = bounds_of_index idx in
          let mid = float_of_int (lo + hi) /. 2.0 /. units_per_one in
          Float.min t.max_v (Float.max t.min_v mid)
        end
        else find (idx + 1) acc
      end
    in
    find 0 0
  end

let merge_into ~into src =
  if src.count > 0 then begin
    ensure into (Array.length src.counts - 1);
    Array.iteri
      (fun i c -> if c > 0 then into.counts.(i) <- into.counts.(i) + c)
      src.counts;
    if into.count = 0 then begin
      into.min_v <- src.min_v;
      into.max_v <- src.max_v
    end
    else begin
      if src.min_v < into.min_v then into.min_v <- src.min_v;
      if src.max_v > into.max_v then into.max_v <- src.max_v
    end;
    into.count <- into.count + src.count;
    into.sum <- into.sum +. src.sum
  end
