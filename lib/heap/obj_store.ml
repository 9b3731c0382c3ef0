module Ivec = Gcperf_util.Int_vec

type location = Eden | Survivor | Old | Region of int | Nowhere

(* --- struct-of-arrays layout ------------------------------------------

   One unboxed int-array column per attribute instead of one boxed record
   per object: a mark loop touches size/location/mark words that sit
   densely in a handful of arrays rather than chasing a pointer per
   object into a scattered heap of records.  Six columns hold everything
   an object needs, and attributes that fit share a word:

   - [locv]: location code and age, [code lsl age_bits lor age].  Codes
     are small ints ([Region r] packs the index into the code), so the
     young test is one compare ([locv < young_limit]) and every other
     location test is a shift and a compare;
   - [ref_off] and [ref_lc]: the object's slice of one shared CSR edge
     arena, as its start offset and [cap lsl len_bits lor len], so a
     scan of an object's children is a linear slice walk;
   - [sizev], [markv] (trace epoch stamp) and [yrefv] (young-ref count).

   There is no live-id list: freed slots carry the [Nowhere] code, and
   live-id iteration scans the slots in id order. *)

let code_eden = 0
let code_survivor = 1
let code_old = 2
let code_nowhere = 3
let region_base = 4

(* Young ages stay below 16: the tenuring threshold is validated to 1..15
   and a survivor ages by one per collection until it is promoted.  Only
   G1's mixed collections keep ageing tenured objects, and they saturate
   at [max_age]. *)
let age_bits = 5
let max_age = (1 lsl age_bits) - 1  (* also the age field's mask *)
let young_limit = (code_survivor + 1) lsl age_bits
let nowhere_word = code_nowhere lsl age_bits
let region_floor = region_base lsl age_bits

let[@inline] code_of_word w = w lsr age_bits

let len_bits = 32
let len_mask = (1 lsl len_bits) - 1
let[@inline] lc_len lc = lc land len_mask
let[@inline] lc_cap lc = lc lsr len_bits
let[@inline] lc_pack ~cap ~len = (cap lsl len_bits) lor len

let[@inline] code_of_loc = function
  | Eden -> code_eden
  | Survivor -> code_survivor
  | Old -> code_old
  | Nowhere -> code_nowhere
  | Region r -> region_base + r

let[@inline] loc_of_code c =
  if c = code_eden then Eden
  else if c = code_survivor then Survivor
  else if c = code_old then Old
  else if c = code_nowhere then Nowhere
  else Region (c - region_base)

type t = {
  mutable sizev : int array;
  mutable locv : int array;  (* code lsl age_bits lor age *)
  mutable markv : int array;  (* epoch stamp; 0 = never marked *)
  mutable yrefv : int array;  (* outgoing refs targeting young objects *)
  mutable ref_off : int array;  (* CSR: slice start in [edges] *)
  mutable ref_lc : int array;  (* CSR: cap lsl len_bits lor len *)
  mutable edges : int array;
  mutable edges_len : int;  (* bump cursor *)
  mutable edges_garbage : int;  (* entries abandoned by slice regrowth *)
  mutable slot_count : int;
  mutable live_n : int;
  free_slots : Ivec.t;
  mutable epoch : int;
  (* Relocation plan (see [finish_relocate]): parallel pairs of object id
     and destination [locv] word, filled in placement order by the
     collector's plan pass. *)
  mutable plan_ids : int array;
  mutable plan_word : int array;
  mutable plan_n : int;
  (* Double-buffered destination arena for [rebuild_edges]: the retired
     source arena becomes the next rebuild's preallocated destination, so
     steady-state rebuilds allocate nothing in the host runtime. *)
  mutable edges_spare : int array;
  (* Forwarding table for pauseless concurrent relocation: one epoch-
     stamped word per slot, [fwd_v.(id) = e lsl 1 lor u], so opening a
     new relocation phase is O(1) and no clearing pass ever runs.  [e =
     fwd_epoch] means the object moved this phase; [u = 1] means no
     reader has remapped (healed) it yet.  Zero-filled slots read as
     "healed in epoch 0", which is never forwarded. *)
  mutable fwd_v : int array;
  fwd_ids : Ivec.t;  (* ids recorded this phase, record order *)
  mutable fwd_epoch : int;
  mutable fwd_pending : int;  (* recorded, not yet healed *)
}

let create () =
  {
    sizev = [||];
    locv = [||];
    markv = [||];
    yrefv = [||];
    ref_off = [||];
    ref_lc = [||];
    edges = [||];
    edges_len = 0;
    edges_garbage = 0;
    slot_count = 0;
    live_n = 0;
    free_slots = Ivec.create ();
    epoch = 0;
    plan_ids = [||];
    plan_word = [||];
    plan_n = 0;
    edges_spare = [||];
    fwd_v = [||];
    fwd_ids = Ivec.create ();
    fwd_epoch = 0;
    fwd_pending = 0;
  }

let[@inline] check t id =
  if id < 0 || id >= t.slot_count then
    invalid_arg "Obj_store: id out of bounds"

let[@inline] check_live t id =
  check t id;
  if code_of_word t.locv.(id) = code_nowhere then
    invalid_arg "Obj_store.get: stale id"

let[@inline] is_live t id =
  id >= 0 && id < t.slot_count && code_of_word t.locv.(id) <> code_nowhere

(* Per-id accessors compile to single unchecked word moves: every id a
   caller can legitimately hold is below [slot_count] (ids are only
   minted by [alloc] and recycled through the free list), so the array
   bounds check would re-prove a structural invariant on the simulator's
   hottest loads.  [is_live]/[check_live] remain the checked entry
   points for untrusted ids. *)
let[@inline] size t id = Array.unsafe_get t.sizev id
let[@inline] age t id = Array.unsafe_get t.locv id land max_age
let[@inline] loc_code t id = code_of_word (Array.unsafe_get t.locv id)
let[@inline] loc t id = loc_of_code (loc_code t id)
let[@inline] young_refs t id = Array.unsafe_get t.yrefv id

let[@inline] is_young t id = Array.unsafe_get t.locv id < young_limit
let[@inline] is_old t id = loc_code t id = code_old
let[@inline] is_nowhere t id = loc_code t id = code_nowhere

let[@inline] region_index t id =
  let c = loc_code t id in
  if c >= region_base then c - region_base else -1

let[@inline] in_region t id idx = loc_code t id = region_base + idx

(* --- epoch-stamped marks --------------------------------------------- *)

(* A trace bumps the store's epoch and stamps reached objects with it;
   stamps from earlier traces are stale by construction, so there is no
   clearing pass.  Epoch 0 never marks (fresh and freed objects carry it). *)

let[@inline] begin_trace t = t.epoch <- t.epoch + 1

let[@inline] mark t id = Array.unsafe_set t.markv id t.epoch

let[@inline] is_marked t id = Array.unsafe_get t.markv id = t.epoch

(* --- allocation ------------------------------------------------------- *)

let[@inline never] grow_columns t =
  let cap = Array.length t.sizev in
  let ncap = if cap = 0 then 8 else cap * 2 in
  let extend col =
    let nd = Array.make ncap 0 in
    Array.blit col 0 nd 0 cap;
    nd
  in
  t.sizev <- extend t.sizev;
  t.locv <- extend t.locv;
  t.markv <- extend t.markv;
  t.yrefv <- extend t.yrefv;
  t.ref_off <- extend t.ref_off;
  t.ref_lc <- extend t.ref_lc

(* Sizes are positive by construction at every call site (allocation
   requests are validated at the VM boundary); no assert on this path. *)
let[@inline] alloc_code t ~size ~code =
  let id =
    if Ivec.is_empty t.free_slots then begin
      let id = t.slot_count in
      if id = Array.length t.sizev then grow_columns t;
      t.slot_count <- id + 1;
      id
      (* fresh columns are zero-filled: the ref slice starts empty *)
    end
    else Ivec.unsafe_pop t.free_slots
    (* the recycled slot's ref slice was emptied by [free] and keeps its
       arena capacity, exactly as the per-object vectors used to *)
  in
  (* [id < Array.length t.sizev] by construction (grow above, or a
     recycled slot), and every column shares that length: unchecked
     stores keep the per-allocation cost to the four word writes. *)
  Array.unsafe_set t.sizev id size;
  Array.unsafe_set t.locv id (code lsl age_bits);
  Array.unsafe_set t.markv id 0;
  Array.unsafe_set t.yrefv id 0;
  t.live_n <- t.live_n + 1;
  id

let alloc t ~size ~loc =
  let code = code_of_loc loc in
  if code = code_nowhere then invalid_arg "Obj_store.alloc: Nowhere";
  alloc_code t ~size ~code

let alloc_region t ~size ~region =
  alloc_code t ~size ~code:(region_base + region)

(* Core of [free] without the liveness checks, shared with the batch
   sweep kernels.  The [free_slots] push order decides future id
   recycling, which the goldens depend on — every caller must visit dead
   objects in the same order the checked per-object loop did. *)
let[@inline] free_unchecked t id =
  (* Only [locv] and the slice length need clearing.  [markv]/[yrefv] of
     a dead id are unreachable — every reader guards on location first
     ([Nowhere] fails both the young and the not-nowhere tests) and
     [alloc_code] re-zeroes them on recycling.  The length must drop to
     zero here: the recycled slot keeps its arena slice capacity but
     starts with no refs. *)
  Array.unsafe_set t.locv id nowhere_word;
  Array.unsafe_set t.ref_lc id
    (Array.unsafe_get t.ref_lc id land lnot len_mask);
  t.live_n <- t.live_n - 1;
  Ivec.push t.free_slots id

let free t id =
  check t id;
  if code_of_word t.locv.(id) = code_nowhere then
    invalid_arg "Obj_store.free: double free";
  free_unchecked t id

(* Retained for callers that still pass a host domain count: every heap
   kernel is sequential, so the value is ignored. *)
let set_default_gc_domains (_ : int) = ()

(* --- CSR edge arena --------------------------------------------------- *)

(* A slice starts with room for one reference and doubles by relocating
   to the bump end of the arena; the abandoned block counts as garbage.
   When the arena itself runs out, it is rebuilt tight (slices packed in
   id order, capacities collapsed to lengths) into a store of twice the
   live size, never smaller than before — one deterministic path covering
   both growth and compaction.  Rebuilds only happen from the mutator-
   facing ref operations, never mid-trace, so trace kernels can cache the
   [edges] array.

   The destination arena is double-buffered: the retired source array is
   kept as [edges_spare] and becomes the next rebuild's preallocated
   destination when large enough, so steady-state rebuilds allocate
   nothing. *)

let[@inline never] rebuild_edges t need =
  let live = t.edges_len - t.edges_garbage in
  let target = live + need in
  let ncap = Int.max 64 (Int.max (Array.length t.edges) (target * 2)) in
  let src = t.edges in
  let dst =
    if Array.length t.edges_spare >= ncap then t.edges_spare
    else Array.make ncap 0
  in
  let ref_off = t.ref_off and ref_lc = t.ref_lc in
  let pos = ref 0 in
  for id = 0 to t.slot_count - 1 do
    let len = lc_len ref_lc.(id) in
    if len > 0 then Array.blit src ref_off.(id) dst !pos len;
    ref_off.(id) <- !pos;
    ref_lc.(id) <- lc_pack ~cap:len ~len;
    pos := !pos + len
  done;
  t.edges_len <- !pos;
  t.edges <- dst;
  (* Keep the retired arena only if it can serve as a later destination:
     a rebuild never shrinks the arena, so after a growing rebuild the
     smaller source could only hold host memory until the next one. *)
  t.edges_spare <- (if Array.length src >= ncap then src else [||]);
  t.edges_garbage <- 0

let[@inline] reserve_edges t need =
  if t.edges_len + need > Array.length t.edges then rebuild_edges t need

let[@inline never] grow_ref t id =
  let ncap =
    let c = lc_cap t.ref_lc.(id) in
    if c = 0 then 1 else c * 2
  in
  reserve_edges t ncap;
  (* re-read after a possible rebuild *)
  let off = t.ref_off.(id) and lc = t.ref_lc.(id) in
  let len = lc_len lc in
  let noff = t.edges_len in
  Array.blit t.edges off t.edges noff len;
  t.edges_len <- noff + ncap;
  t.ref_off.(id) <- noff;
  t.ref_lc.(id) <- lc_pack ~cap:ncap ~len;
  t.edges_garbage <- t.edges_garbage + lc_cap lc

let[@inline] push_ref t id x =
  let lc = t.ref_lc.(id) in
  if lc_len lc = lc_cap lc then grow_ref t id;
  let lc = t.ref_lc.(id) in
  t.edges.(t.ref_off.(id) + lc_len lc) <- x;
  (* [len < cap] here, so the increment stays inside the length field *)
  t.ref_lc.(id) <- lc + 1

let[@inline] ref_count t id = lc_len t.ref_lc.(id)

let[@inline] ref_at t id i = t.edges.(t.ref_off.(id) + i)

let iter_refs t id f =
  let off = t.ref_off.(id) in
  let edges = t.edges in
  for i = off to off + lc_len t.ref_lc.(id) - 1 do
    f edges.(i)
  done

let refs_list t id =
  Array.to_list (Array.sub t.edges t.ref_off.(id) (lc_len t.ref_lc.(id)))

(* --- references and the young-ref counter ----------------------------- *)

(* [yrefv] counts outgoing references whose target currently sits in a
   young space.  It is maintained exactly by the mutator-facing
   operations below; collectors re-derive it with {!recount_young_refs}
   for the objects whose children may have moved or died during a
   collection (targets never change space between collections, so the
   counter stays exact in steady state). *)

let add_ref t ~from ~to_ =
  check_live t from;
  check_live t to_;
  if t.locv.(to_) < young_limit then t.yrefv.(from) <- t.yrefv.(from) + 1;
  push_ref t from to_

let remove_ref t ~from ~to_ =
  check_live t from;
  let off = t.ref_off.(from) and lc = t.ref_lc.(from) in
  let n = lc_len lc in
  let edges = t.edges in
  let rec find i =
    if i >= n then -1 else if edges.(off + i) = to_ then i else find (i + 1)
  in
  let i = find 0 in
  if i >= 0 then begin
    edges.(off + i) <- edges.(off + n - 1);
    t.ref_lc.(from) <- lc - 1;
    if to_ >= 0 && to_ < t.slot_count && t.locv.(to_) < young_limit then
      t.yrefv.(from) <- t.yrefv.(from) - 1
  end

let clear_refs t id =
  check_live t id;
  t.ref_lc.(id) <- t.ref_lc.(id) land lnot len_mask;
  t.yrefv.(id) <- 0

let set_refs t id refs =
  check_live t id;
  let n = Array.length refs in
  if n > lc_cap t.ref_lc.(id) then begin
    reserve_edges t n;
    let abandoned = lc_cap t.ref_lc.(id) in
    t.ref_off.(id) <- t.edges_len;
    t.ref_lc.(id) <- lc_pack ~cap:n ~len:0;
    t.edges_len <- t.edges_len + n;
    t.edges_garbage <- t.edges_garbage + abandoned
  end;
  let cap_word = t.ref_lc.(id) land lnot len_mask in
  t.ref_lc.(id) <- cap_word;
  t.yrefv.(id) <- 0;
  let off = t.ref_off.(id) in
  for i = 0 to n - 1 do
    let r = refs.(i) in
    check_live t r;
    t.edges.(off + i) <- r;
    t.ref_lc.(id) <- cap_word lor (i + 1);
    if t.locv.(r) < young_limit then t.yrefv.(id) <- t.yrefv.(id) + 1
  done

let recount_young_refs t id =
  let off = t.ref_off.(id) in
  let edges = t.edges and locv = t.locv in
  let n = ref 0 in
  for i = off to off + lc_len t.ref_lc.(id) - 1 do
    if locv.(edges.(i)) < young_limit then incr n
  done;
  t.yrefv.(id) <- !n

(* --- live-id iteration ------------------------------------------------ *)

(* A scan of the slot table in id order: O(capacity), not O(live), but
   with no live-id list to keep per slot and no sort — ascending ids are
   the order downstream consumers (G1's remembered-set rebuild) depend
   on.  The slot table only grows to the peak live count, since freed
   slots are recycled before new ones are minted. *)

let[@inline] live_count t = t.live_n

let iter_live t f =
  let locv = t.locv in
  for id = 0 to t.slot_count - 1 do
    if code_of_word (Array.unsafe_get locv id) <> code_nowhere then f id
  done

let live_ids t =
  let acc = Ivec.create ~capacity:(Int.max 1 t.live_n) () in
  iter_live t (fun id -> Ivec.push acc id);
  acc

let[@inline] capacity t = t.slot_count

(* --- trace kernel ------------------------------------------------------

   [sequential_finish] runs a trace to closure from an already-seeded
   stack: pop a vertex, scan its references, and mark/push every unmarked
   child the predicate admits.  Every artifact in the goldens depends on
   the exact discovery order of this loop — survivor-budget overflow,
   evacuation bump-packing, free-slot recycling and remembered-set bucket
   orders all descend from it.  It is the only trace path: a parallel
   pre-scan would still have to replay this order sequentially, so it
   could only add work (DESIGN.md §12). *)

type trace_pred = Trace_young | Trace_live | Trace_regions of bool array

let sequential_finish t ~pred ~marked ~stack =
  let edges = t.edges
  and ref_off = t.ref_off
  and ref_lc = t.ref_lc
  and markv = t.markv
  and locv = t.locv
  and ep = t.epoch in
  (* Unsafe accesses: [v] comes off the stack (a live id below every
     column's length) and [c] out of the edge arena, whose entries are
     ids the store itself wrote. *)
  while not (Ivec.is_empty stack) do
    let v = Ivec.unsafe_pop stack in
    let off = Array.unsafe_get ref_off v in
    for i = off to off + lc_len (Array.unsafe_get ref_lc v) - 1 do
      let c = Array.unsafe_get edges i in
      let admit =
        match pred with
        | Trace_young -> Array.unsafe_get locv c < young_limit
        | Trace_live -> code_of_word (Array.unsafe_get locv c) <> code_nowhere
        | Trace_regions rs ->
            let w = Array.unsafe_get locv c in
            w >= region_floor && rs.(code_of_word w - region_base)
      in
      if admit && Array.unsafe_get markv c <> ep then begin
        Array.unsafe_set markv c ep;
        Ivec.push marked c;
        Ivec.push stack c
      end
    done
  done

(* --- relocation kernel -------------------------------------------------

   [finish_relocate] is the move half of a two-phase relocation.  Phase
   A (plan) happens in the collector: walking survivors in deterministic
   trace order it decides destinations — bump-packing, budget checks,
   registry pushes and used accounting are inherently ordered and stay
   sequential — and records each object's target location code and age,
   already packed as a [locv] word, with {!plan_push}.  Phase B (move)
   is this kernel: one pass stores the recorded words into [locv] in
   plan order. *)

let[@inline never] grow_plan t =
  let cap = Array.length t.plan_ids in
  let ncap = if cap = 0 then 256 else cap * 2 in
  let extend col =
    let nd = Array.make ncap 0 in
    Array.blit col 0 nd 0 t.plan_n;
    nd
  in
  t.plan_ids <- extend t.plan_ids;
  t.plan_word <- extend t.plan_word

let[@inline] plan_clear t = t.plan_n <- 0
let[@inline] plan_length t = t.plan_n

let[@inline] plan_push_code t id code age =
  if age < 0 || age > max_age then
    invalid_arg "Obj_store.plan_push: age does not fit the age bits";
  let n = t.plan_n in
  if n = Array.length t.plan_ids then grow_plan t;
  t.plan_ids.(n) <- id;
  t.plan_word.(n) <- (code lsl age_bits) lor age;
  t.plan_n <- n + 1

let[@inline] plan_push t id ~loc ~age = plan_push_code t id (code_of_loc loc) age
let[@inline] plan_push_old t id ~age = plan_push_code t id code_old age
let[@inline] plan_push_survivor t id ~age = plan_push_code t id code_survivor age
let[@inline] plan_push_eden t id ~age = plan_push_code t id code_eden age

let[@inline] plan_push_region t id ~region ~age =
  plan_push_code t id (region_base + region) age

let finish_relocate t =
  let n = t.plan_n in
  let ids = t.plan_ids and word = t.plan_word in
  let locv = t.locv in
  for i = 0 to n - 1 do
    Array.unsafe_set locv (Array.unsafe_get ids i) (Array.unsafe_get word i)
  done;
  t.plan_n <- 0;
  n

(* --- batch sweep kernels -----------------------------------------------

   Column-direct equivalents of the per-object free loops in the
   collectors.  Visit order, keep order and [free_slots] push order are
   exactly those of the closure-per-id originals; the win is skipping the
   per-id closure call and the re-checked column loads. *)

(* [filter_in_place] for a young registry: keep young+marked ids, free
   young+unmarked ids (accumulating their bytes), drop the rest (objects
   promoted out of the young spaces).  Returns the freed byte count. *)
let sweep_young_registry t v =
  let locv = t.locv and markv = t.markv and sizev = t.sizev in
  let ep = t.epoch in
  let freed = ref 0 in
  let j = ref 0 in
  let n = Ivec.length v in
  for i = 0 to n - 1 do
    let id = Ivec.unsafe_get v i in
    if Array.unsafe_get locv id < young_limit then
      if Array.unsafe_get markv id = ep then begin
        Ivec.unsafe_set v !j id;
        incr j
      end
      else begin
        freed := !freed + Array.unsafe_get sizev id;
        free_unchecked t id
      end
  done;
  Ivec.truncate v !j;
  !freed

(* Full-collection sweep over a registry: free every still-present
   unmarked id, leave the registry itself untouched (the caller compacts
   it afterwards).  Returns the freed byte count. *)
let sweep_dead t v =
  let locv = t.locv and markv = t.markv and sizev = t.sizev in
  let ep = t.epoch in
  let freed = ref 0 in
  let n = Ivec.length v in
  for i = 0 to n - 1 do
    let id = Ivec.unsafe_get v i in
    if
      code_of_word (Array.unsafe_get locv id) <> code_nowhere
      && Array.unsafe_get markv id <> ep
    then begin
      freed := !freed + Array.unsafe_get sizev id;
      free_unchecked t id
    end
  done;
  !freed

(* --- forwarding table (pauseless concurrent relocation) ----------------

   The concurrent region collector moves objects while mutators run; a
   moved object gets a forwarding entry, and every mutator reference
   load runs a load barrier: forwarded and not yet healed means the
   reader takes the slow path once, remaps the referencing slot
   (self-healing) and never pays again for that object.  The remap flip
   heals whatever the mutators did not touch.  An entry is one word,
   [fwd_epoch lsl 1 lor unhealed]: [fwd_begin] invalidates the whole
   table in O(1), a read heals by clearing the low bit. *)

let[@inline never] grow_fwd t =
  let cap = Int.max 64 (Array.length t.sizev) in
  let nd = Array.make cap 0 in
  Array.blit t.fwd_v 0 nd 0 (Array.length t.fwd_v);
  t.fwd_v <- nd

let fwd_begin t =
  if Array.length t.fwd_v < t.slot_count then grow_fwd t;
  t.fwd_epoch <- t.fwd_epoch + 1;
  Ivec.clear t.fwd_ids;
  t.fwd_pending <- 0

let fwd_record t id =
  check t id;
  if Array.length t.fwd_v <= id then grow_fwd t;
  if t.fwd_v.(id) lsr 1 <> t.fwd_epoch then begin
    t.fwd_v.(id) <- (t.fwd_epoch lsl 1) lor 1;
    Ivec.push t.fwd_ids id;
    t.fwd_pending <- t.fwd_pending + 1
  end

(* Forwarded this phase and not yet healed. *)
let[@inline] fwd_is_forwarded t id =
  id >= 0
  && id < Array.length t.fwd_v
  && Array.unsafe_get t.fwd_v id = (t.fwd_epoch lsl 1) lor 1

let fwd_read t id =
  if fwd_is_forwarded t id then begin
    t.fwd_v.(id) <- t.fwd_epoch lsl 1;
    t.fwd_pending <- t.fwd_pending - 1;
    true
  end
  else false

let fwd_pending t = t.fwd_pending

let fwd_heal_all t =
  let healed = ref 0 in
  let unhealed = (t.fwd_epoch lsl 1) lor 1 in
  Ivec.iter
    (fun id ->
      if t.fwd_v.(id) = unhealed then begin
        t.fwd_v.(id) <- t.fwd_epoch lsl 1;
        incr healed
      end)
    t.fwd_ids;
  t.fwd_pending <- 0;
  Ivec.clear t.fwd_ids;
  !healed
