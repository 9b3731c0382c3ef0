(* Struct-of-arrays binary min-heap.  Keys live in an unboxed [int
   array] and payloads in a parallel array, so a push allocates nothing
   beyond amortised growth and a key comparison is one word load.  Sifts
   move a hole rather than swapping: the element being placed is held
   aside, each step copies one key and one payload into the hole, and the
   element is written once where the hole stops.

   The comparisons are the ones a swap heap makes (strict [<], the left
   child wins ties, a pop moves the last leaf to the root), so every
   element ends in the slot a swap heap would give it; see the tie-order
   contract in heapq.mli. *)

type 'a t = {
  mutable keys : int array;
  mutable vals : 'a array;  (* [vals.(i)] belongs to [keys.(i)] *)
  mutable len : int;
}

let create () = { keys = [||]; vals = [||]; len = 0 }

let length q = q.len

let is_empty q = q.len = 0

(* The payload being pushed fills the new slots, so the payload array
   needs no dummy value of type ['a]. *)
let[@inline never] grow q payload =
  let cap = Array.length q.keys in
  let ncap = if cap = 0 then 8 else cap * 2 in
  let keys = Array.make ncap 0 and vals = Array.make ncap payload in
  Array.blit q.keys 0 keys 0 q.len;
  Array.blit q.vals 0 vals 0 q.len;
  q.keys <- keys;
  q.vals <- vals

(* In both sifts every index read or written is below [q.len], which is
   at most the arrays' length, so the accesses are unchecked. *)

let push q key payload =
  if q.len = Array.length q.keys then grow q payload;
  let keys = q.keys and vals = q.vals in
  let hole = ref q.len in
  q.len <- q.len + 1;
  let continue = ref true in
  while !continue && !hole > 0 do
    let parent = (!hole - 1) / 2 in
    let pk = Array.unsafe_get keys parent in
    if key < pk then begin
      Array.unsafe_set keys !hole pk;
      Array.unsafe_set vals !hole (Array.unsafe_get vals parent);
      hole := parent
    end
    else continue := false
  done;
  Array.unsafe_set keys !hole key;
  Array.unsafe_set vals !hole payload

(* Places [key, payload] by moving a hole down from the root of a heap of
   [n] elements.  [keys] and [key] are annotated: unannotated, this
   top-level function would generalise them to ['a] and every key
   comparison would be a generic-compare C call. *)
let sift_down (keys : int array) vals n (key : int) payload =
  let hole = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !hole) + 1 in
    if l >= n then continue := false
    else begin
      let r = l + 1 in
      let c =
        if r < n && Array.unsafe_get keys r < Array.unsafe_get keys l then r
        else l
      in
      let ck = Array.unsafe_get keys c in
      if ck < key then begin
        Array.unsafe_set keys !hole ck;
        Array.unsafe_set vals !hole (Array.unsafe_get vals c);
        hole := c
      end
      else continue := false
    end
  done;
  Array.unsafe_set keys !hole key;
  Array.unsafe_set vals !hole payload

let min_key q = if q.len = 0 then None else Some q.keys.(0)

let pop q =
  if q.len = 0 then None
  else begin
    let keys = q.keys and vals = q.vals in
    let top = Some (keys.(0), vals.(0)) in
    let n = q.len - 1 in
    q.len <- n;
    if n > 0 then sift_down keys vals n keys.(n) vals.(n);
    top
  end

let iter f q =
  for i = 0 to q.len - 1 do
    f q.keys.(i) q.vals.(i)
  done
