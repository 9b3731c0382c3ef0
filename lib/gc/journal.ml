module Ivec = Gcperf_util.Int_vec

(* One word per (id, delta) entry, [id lsl 2 lor (delta + 1)], in append
   order: RC deltas are -1, 0 or +1, so two bits hold them.  Mutators
   append from the simulated write barrier / allocation path; the
   collector folds a whole journal into the reference-count column at a
   flip. *)
type t = { entries : Ivec.t }

let create () = { entries = Ivec.create () }

let[@inline] append t id delta =
  if delta < -1 || delta > 1 then
    invalid_arg "Journal.append: delta outside -1..1";
  Ivec.push t.entries ((id lsl 2) lor (delta + 1))

let length t = Ivec.length t.entries
let is_empty t = Ivec.length t.entries = 0
let clear t = Ivec.clear t.entries

let iter t f =
  for i = 0 to Ivec.length t.entries - 1 do
    let e = Ivec.unsafe_get t.entries i in
    f (e asr 2) ((e land 3) - 1)
  done

let fold t ~rc =
  let n = Ivec.length t.entries in
  for i = 0 to n - 1 do
    let e = Ivec.unsafe_get t.entries i in
    let id = e asr 2 in
    Array.unsafe_set rc id (Array.unsafe_get rc id + (e land 3) - 1)
  done;
  n
