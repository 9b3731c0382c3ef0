(* An integer-keyed hash set that reproduces [Hashtbl]'s observable
   behaviour exactly — same hash function, same bucket count evolution,
   same within-bucket ordering, hence the same iteration order — while
   staying monomorphic and allocation-free on the add/remove fast path
   (no generic-hash C call, no [Cons] cell per binding).

   Root sets, dirty cards and G1's region remembered sets iterate in
   hash-table order and that order feeds GC traces, whose visit order
   decides survivor-overflow promotion splits in the simulator: swapping
   in a structure with any other iteration order changes simulated
   results.  Fidelity is enforced by the test suite, which drives this
   module and [Hashtbl] through identical operation sequences and
   compares iteration orders (see test_util.ml). *)

(* [buckets.(i)] holds bucket [i]'s keys in traversal order at indices
   [1 .. n], with [n] at index 0.  A bucket that has never held a key is
   the shared empty array, which is never written: the first insert
   replaces it.  The bucket array itself is the empty array until the
   first insert (and again after a [reset] of a grown table), so an
   empty table is its record alone: a region heap holds one remembered
   set per region, most of them empty.

   [last_key]/[last_hash] memoise the most recent hash: a root is often
   dropped right after it was added, and the (fidelity-mandated)
   MurmurHash is the dominant cost of both operations. *)
type t = {
  mutable buckets : int array array;
  mutable size : int;
  initial_buckets : int;
  mutable last_key : int;
  mutable last_hash : int;
}

(* [Hashtbl.hash] on an [int], reimplemented: MurmurHash3 mixing of the
   64-bit word folded to 32 bits, then the final avalanche, masked to 30
   bits — bit-for-bit what runtime/hash.c computes. *)

let[@inline] mul32 a b = a * b land 0xFFFFFFFF

let[@inline] rotl32 x n = (x lsl n) lor (x lsr (32 - n)) land 0xFFFFFFFF

let hash_int d =
  (* The runtime mixes the tagged machine word w = 2d+1, not the value:
     reconstruct w's two 32-bit halves from 63-bit OCaml arithmetic (w's
     bit 63 is d's sign), then fold halves and sign as
     caml_hash_mix_intnat does. *)
  let t = (2 * d) + 1 in
  let lo = t land 0xFFFFFFFF in
  let hi =
    (t asr 32) land 0x7FFFFFFF lor (if d < 0 then 0x80000000 else 0)
  in
  let sign = if d < 0 then 0xFFFFFFFF else 0 in
  let n = hi lxor sign lxor lo in
  let n = mul32 n 0xcc9e2d51 in
  let n = rotl32 n 15 in
  let n = mul32 n 0x1b873593 in
  let h = n (* seed 0 lxor n *) in
  let h = rotl32 h 13 in
  let h = (mul32 h 5 + 0xe6546b64) land 0xFFFFFFFF in
  (* FINAL_MIX *)
  let h = h lxor (h lsr 16) in
  let h = mul32 h 0x85ebca6b in
  let h = h lxor (h lsr 13) in
  let h = mul32 h 0xc2b2ae35 in
  let h = h lxor (h lsr 16) in
  h land 0x3FFFFFFF

let rec power_2_above x n =
  if x >= n then x
  else if x * 2 > Sys.max_array_length then x
  else power_2_above (x * 2) n

let create n =
  {
    buckets = [||];
    size = 0;
    initial_buckets = power_2_above 16 n;
    last_key = 0;
    last_hash = hash_int 0;
  }

let length t = t.size

let[@inline] count (keys : int array) =
  if Array.length keys = 0 then 0 else Array.unsafe_get keys 0

let[@inline] hash t k =
  if k = t.last_key then t.last_hash
  else begin
    let h = hash_int k in
    t.last_key <- k;
    t.last_hash <- h;
    h
  end

(* The bucket count is a power of two, so masking keeps every index in
   bounds once the buckets exist (callers check); likewise the loops
   below stay inside [1 .. count keys]. *)
let[@inline] index t k = hash t k land (Array.length t.buckets - 1)

(* [keys] itself when one more key fits, else a doubled array (at least
   4 slots) installed in its place, into which the caller copies the
   keys. *)
let[@inline] room bs bi keys n =
  if n + 1 < Array.length keys then keys
  else begin
    let nk = Array.make (Int.max 4 (2 * Array.length keys)) 0 in
    Array.unsafe_set bs bi nk;
    nk
  end

(* [Hashtbl.add] puts a binding at its chain's head.  Shifts use manual
   loops, not [Array.blit]: buckets hold a handful of keys and the
   blit's C call costs more than the moves themselves. *)
let prepend bs bi k =
  let keys = Array.unsafe_get bs bi in
  let n = count keys in
  let dst = room bs bi keys n in
  for i = n downto 1 do
    Array.unsafe_set dst (i + 1) (Array.unsafe_get keys i)
  done;
  Array.unsafe_set dst 1 k;
  Array.unsafe_set dst 0 (n + 1)

(* [Hashtbl]'s resize appends each binding to its new chain's tail while
   walking the old table in traversal order, so relative order survives a
   resize; appending here reproduces that. *)
let append bs bi k =
  let keys = Array.unsafe_get bs bi in
  let n = count keys in
  let dst = room bs bi keys n in
  if dst != keys then
    for i = 1 to n do
      Array.unsafe_set dst i (Array.unsafe_get keys i)
    done;
  Array.unsafe_set dst (n + 1) k;
  Array.unsafe_set dst 0 (n + 1)

let resize t =
  let ob = t.buckets in
  let nsize = Array.length ob * 2 in
  if nsize < Sys.max_array_length then begin
    let nb = Array.make nsize [||] in
    t.buckets <- nb;
    Array.iter
      (fun keys ->
        for i = 1 to count keys do
          let k = Array.unsafe_get keys i in
          append nb (hash_int k land (nsize - 1)) k
        done)
      ob
  end

let[@inline] materialise t =
  if Array.length t.buckets = 0 then
    t.buckets <- Array.make t.initial_buckets [||]

let insert t bi k =
  prepend t.buckets bi k;
  t.size <- t.size + 1;
  if t.size > 2 * Array.length t.buckets then resize t

let add t k =
  materialise t;
  insert t (index t k) k

(* Top-level, fully-applied scan: a local [let rec] capturing the bucket
   would allocate its closure on every call.  The annotation keeps the
   key test an inline [int] compare rather than a generic one. *)
let rec scan_from (keys : int array) n (k : int) i =
  if i > n then -1
  else if Array.unsafe_get keys i = k then i
  else scan_from keys n k (i + 1)

let mem t k =
  t.size > 0
  &&
  let keys = Array.unsafe_get t.buckets (index t k) in
  scan_from keys (count keys) k 1 > 0

(* [Hashtbl.replace] of a present key rewrites its data cell in place —
   for a set that is a no-op — and otherwise inserts like [add]. *)
let replace t k =
  materialise t;
  let bi = index t k in
  let keys = Array.unsafe_get t.buckets bi in
  if scan_from keys (count keys) k 1 < 0 then insert t bi k

(* Head hit first, scan second: removal of the most recent insertion —
   the allocate/drop-root churn pattern — finds its key at the chain
   head, where [add]'s prepend put it. *)
let remove t k =
  if t.size > 0 then begin
    let keys = Array.unsafe_get t.buckets (index t k) in
    let n = count keys in
    let i =
      if n > 0 && Array.unsafe_get keys 1 = k then 1
      else scan_from keys n k 2
    in
    if i > 0 then begin
      for j = i to n - 1 do
        Array.unsafe_set keys j (Array.unsafe_get keys (j + 1))
      done;
      Array.unsafe_set keys 0 (n - 1);
      t.size <- t.size - 1
    end
  end

(* Direct nested loop, no [Array.iter]: root-set iteration seeds every
   trace, and the per-bucket closure invocation dominates on mostly-empty
   tables.  The size guard skips the bucket walk entirely for empty
   tables (one emptied by removals keeps all its buckets). *)
let iter f t =
  if t.size > 0 then begin
    let bs = t.buckets in
    for bi = 0 to Array.length bs - 1 do
      let keys = Array.unsafe_get bs bi in
      for i = 1 to count keys do
        f (Array.unsafe_get keys i)
      done
    done
  end

(* At the initial bucket count the key arrays are kept and emptied (an
   empty table's counts are already 0); a grown table drops its buckets,
   as a fresh one has none. *)
let reset t =
  let nb = Array.length t.buckets in
  if nb = t.initial_buckets then begin
    if t.size > 0 then
      Array.iter
        (fun keys -> if Array.length keys > 0 then Array.unsafe_set keys 0 0)
        t.buckets
  end
  else if nb > 0 then t.buckets <- [||];
  t.size <- 0
