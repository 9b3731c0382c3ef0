(* An integer-keyed hash set that reproduces [Hashtbl]'s observable
   behaviour exactly — same hash function, same bucket count evolution,
   same within-bucket ordering, hence the same iteration order — while
   staying monomorphic and allocation-free on the add/remove fast path
   (no generic-hash C call, no [Cons] cell per binding).

   Root sets iterate in hash-table order and that order feeds GC traces,
   whose visit order decides survivor-overflow promotion splits in the
   simulator: swapping in a structure with any other iteration order
   changes simulated results.  Fidelity is enforced by the test suite,
   which drives this module and [Hashtbl] through identical operation
   sequences and compares iteration orders (see test_util.ml). *)

type bucket = { mutable keys : int array; mutable blen : int }

type t = {
  mutable buckets : bucket array;
  mutable size : int;
  (* Derived from [Array.length buckets], maintained on create/resize/
     reset: the add/remove fast path reads these instead of re-deriving
     them from the bucket array's header each call. *)
  mutable mask : int;
  mutable resize_at : int;
  initial_buckets : int;
  (* Direct-mapped hash cache: the store recycles object ids through its
     free list, so a root set sees the same few hundred keys over and
     over — caching the (expensive, fidelity-mandated) MurmurHash per
     key turns the add/remove fast path into a mask and two loads.  The
     cache only memoises hash values, never bindings, so table semantics
     are untouched.  [cache_keys] starts at [min_int] (never a real
     key); a key equal to [min_int] just recomputes every time. *)
  cache_keys : int array;
  cache_vals : int array;
}

let cache_size = 256

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

let fresh_bucket _ = { keys = [||]; blen = 0 }

let create n =
  let nb = power_2_above 16 n in
  {
    buckets = Array.init nb fresh_bucket;
    size = 0;
    mask = nb - 1;
    resize_at = nb lsl 1;
    initial_buckets = nb;
    cache_keys = Array.make cache_size min_int;
    cache_vals = Array.make cache_size 0;
  }

let length t = t.size

(* Buckets are stored in traversal order: index 0 is the chain head (the
   most recent insertion), as [Hashtbl.add]'s prepend leaves it. *)

(* Shifts use manual loops, not [Array.blit]: buckets hold a handful of
   keys and the blit's C call costs more than the moves themselves. *)
let bucket_prepend b k =
  let cap = Array.length b.keys in
  if b.blen = cap then begin
    let nk = Array.make (if cap = 0 then 4 else cap * 2) 0 in
    for i = b.blen downto 1 do
      Array.unsafe_set nk i (Array.unsafe_get b.keys (i - 1))
    done;
    Array.unsafe_set nk 0 k;
    b.keys <- nk
  end
  else begin
    (* blen < cap here, so every index below is in bounds. *)
    let keys = b.keys in
    for i = b.blen downto 1 do
      Array.unsafe_set keys i (Array.unsafe_get keys (i - 1))
    done;
    Array.unsafe_set keys 0 k
  end;
  b.blen <- b.blen + 1

let bucket_append b k =
  let cap = Array.length b.keys in
  if b.blen = cap then begin
    let nk = Array.make (if cap = 0 then 4 else cap * 2) 0 in
    Array.blit b.keys 0 nk 0 b.blen;
    b.keys <- nk
  end;
  b.keys.(b.blen) <- k;
  b.blen <- b.blen + 1

(* [Hashtbl]'s resize appends each binding to its new chain's tail while
   walking the old table in traversal order, so relative order survives a
   resize; appending here reproduces that. *)
let resize t =
  let ob = t.buckets in
  let nsize = Array.length ob * 2 in
  if nsize < Sys.max_array_length then begin
    let nb = Array.init nsize fresh_bucket in
    t.buckets <- nb;
    let mask = nsize - 1 in
    t.mask <- mask;
    t.resize_at <- nsize lsl 1;
    Array.iter
      (fun b ->
        for i = 0 to b.blen - 1 do
          let k = b.keys.(i) in
          bucket_append nb.(hash_int k land mask) k
        done)
      ob
  end

let[@inline] memo_hash_int t k =
  let slot = k land (cache_size - 1) in
  if Array.unsafe_get t.cache_keys slot = k then
    Array.unsafe_get t.cache_vals slot
  else begin
    let h = hash_int k in
    Array.unsafe_set t.cache_keys slot k;
    Array.unsafe_set t.cache_vals slot h;
    h
  end

let[@inline] index t k = memo_hash_int t k land t.mask

(* [index] masks by the bucket count, so the lookup is always in
   bounds; likewise scans below [blen] stay inside [keys]. *)
let[@inline] bucket t k = Array.unsafe_get t.buckets (index t k)

let add t k =
  bucket_prepend (bucket t k) k;
  t.size <- t.size + 1;
  if t.size > t.resize_at then resize t

(* Top-level, fully-applied scan: a local [let rec] capturing the bucket
   would allocate its closure on every call.  The annotation keeps the
   key test an inline [int] compare rather than a generic one. *)
let rec scan_from (keys : int array) blen (k : int) i =
  if i >= blen then -1
  else if Array.unsafe_get keys i = k then i
  else scan_from keys blen k (i + 1)

let mem t k =
  let b = bucket t k in
  scan_from b.keys b.blen k 0 >= 0

(* [Hashtbl.replace] of a present key rewrites its data cell in place —
   for a set that is a no-op — and otherwise inserts like [add]. *)
let replace t k = if not (mem t k) then add t k

(* Head hit first, scan second: removal of the most recent insertion —
   the allocate/drop-root churn pattern — finds its key at the chain
   head, where [add]'s prepend put it. *)
let remove t k =
  let b = bucket t k in
  let keys = b.keys and blen = b.blen in
  let i =
    if blen > 0 && Array.unsafe_get keys 0 = k then 0
    else scan_from keys blen k 1
  in
  if i >= 0 then begin
    let last = blen - 1 in
    for j = i to last - 1 do
      Array.unsafe_set keys j (Array.unsafe_get keys (j + 1))
    done;
    b.blen <- last;
    t.size <- t.size - 1
  end

(* Direct nested loop, no [Array.iter]: root-set iteration seeds every
   trace, and the per-bucket closure invocation dominates on mostly-empty
   tables.  The size guard skips the bucket walk entirely for empty
   tables (a fresh table still has its initial buckets to scan). *)
let iter f t =
  if t.size > 0 then begin
    let bs = t.buckets in
    for bi = 0 to Array.length bs - 1 do
      let b = Array.unsafe_get bs bi in
      let keys = b.keys in
      for i = 0 to b.blen - 1 do
        f (Array.unsafe_get keys i)
      done
    done
  end

let reset t =
  t.size <- 0;
  if Array.length t.buckets = t.initial_buckets then
    Array.iter (fun b -> b.blen <- 0) t.buckets
  else begin
    t.buckets <- Array.init t.initial_buckets fresh_bucket;
    t.mask <- t.initial_buckets - 1;
    t.resize_at <- t.initial_buckets lsl 1
  end
