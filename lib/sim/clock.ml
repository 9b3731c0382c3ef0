type t = { mutable now : float }

let create () = { now = 0.0 }

let now_us t = t.now

let now_s t = t.now /. 1e6

let advance_us t d =
  assert (d >= 0.0);
  t.now <- t.now +. d

let advance_s t d = advance_us t (d *. 1e6)
