module Ivec = Gcperf_util.Int_vec

(* Packed (id, delta) pairs in append order.  Mutators append from the
   simulated write barrier / allocation path; the collector folds a
   whole journal into the reference-count column at a flip. *)
type t = { entries : Ivec.t }

let create () = { entries = Ivec.create () }

let[@inline] append t id delta =
  Ivec.push t.entries id;
  Ivec.push t.entries delta

let length t = Ivec.length t.entries / 2
let is_empty t = Ivec.length t.entries = 0
let clear t = Ivec.clear t.entries

let iter t f =
  let n = Ivec.length t.entries / 2 in
  for i = 0 to n - 1 do
    f (Ivec.unsafe_get t.entries (2 * i)) (Ivec.unsafe_get t.entries ((2 * i) + 1))
  done

let fold t ~rc =
  let n = Ivec.length t.entries / 2 in
  for i = 0 to n - 1 do
    let id = Ivec.unsafe_get t.entries (2 * i) in
    let d = Ivec.unsafe_get t.entries ((2 * i) + 1) in
    Array.unsafe_set rc id (Array.unsafe_get rc id + d)
  done;
  n
