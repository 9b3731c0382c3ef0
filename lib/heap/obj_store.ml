module Ivec = Gcperf_util.Int_vec

type location = Eden | Survivor | Old | Region of int | Nowhere

(* --- struct-of-arrays layout ------------------------------------------

   One unboxed int-array column per attribute instead of one boxed record
   per object: a mark loop touches size/location/mark words that sit
   densely in a handful of arrays rather than chasing a pointer per
   object into a scattered heap of records.  Locations are small int
   codes (constant-time compares; [Region r] packs the index into the
   code), and outgoing references live in one shared CSR edge arena —
   per-object offset/length/capacity columns into a single [edges] array
   — so a scan of an object's children is a linear slice walk. *)

let code_eden = 0
let code_survivor = 1
let code_old = 2
let code_nowhere = 3
let region_base = 4

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
  mutable agev : int array;
  mutable locv : int array;
  mutable markv : int array;  (* epoch stamp; 0 = never marked *)
  mutable yrefv : int array;  (* outgoing refs targeting young objects *)
  mutable ref_off : int array;  (* CSR: slice start in [edges] *)
  mutable ref_len : int array;
  mutable ref_cap : int array;
  mutable live_pos : int array;  (* index in [live_list]; -1 when free *)
  mutable edges : int array;
  mutable edges_len : int;  (* bump cursor *)
  mutable edges_garbage : int;  (* entries abandoned by slice regrowth *)
  mutable slot_count : int;
  free_slots : Ivec.t;
  live_list : Ivec.t;  (* live ids, unordered (swap-remove) *)
  mutable epoch : int;
  (* Relocation plan (see [finish_relocate]): parallel triples of object
     id, destination location code and destination age, filled in
     placement order by the collector's plan pass. *)
  mutable plan_ids : int array;
  mutable plan_code : int array;
  mutable plan_age : int array;
  mutable plan_n : int;
  (* Double-buffered destination arena for [rebuild_edges]: the retired
     source arena becomes the next rebuild's preallocated destination, so
     steady-state rebuilds allocate nothing in the host runtime. *)
  mutable edges_spare : int array;
  (* Forwarding table for pauseless concurrent relocation: epoch-stamped
     per-slot entries, so opening a new relocation phase is O(1) and no
     clearing pass ever runs.  [fwd_stampv.(id) = fwd_epoch] means the
     object moved this phase; [fwd_healv.(id) = fwd_epoch] means some
     reader already remapped (healed) it. *)
  mutable fwd_stampv : int array;
  mutable fwd_healv : int array;
  fwd_ids : Ivec.t;  (* ids recorded this phase, record order *)
  mutable fwd_epoch : int;
  mutable fwd_pending : int;  (* recorded, not yet healed *)
  mutable fwd_hits : int;  (* load-barrier slow paths taken this phase *)
}

let create () =
  {
    sizev = [||];
    agev = [||];
    locv = [||];
    markv = [||];
    yrefv = [||];
    ref_off = [||];
    ref_len = [||];
    ref_cap = [||];
    live_pos = [||];
    edges = [||];
    edges_len = 0;
    edges_garbage = 0;
    slot_count = 0;
    free_slots = Ivec.create ();
    live_list = Ivec.create ();
    epoch = 0;
    plan_ids = [||];
    plan_code = [||];
    plan_age = [||];
    plan_n = 0;
    edges_spare = [||];
    fwd_stampv = [||];
    fwd_healv = [||];
    fwd_ids = Ivec.create ();
    fwd_epoch = 0;
    fwd_pending = 0;
    fwd_hits = 0;
  }

let[@inline] is_young_loc = function
  | Eden | Survivor -> true
  | Old | Region _ | Nowhere -> false

let[@inline] is_old_loc = function
  | Old -> true
  | Eden | Survivor | Region _ | Nowhere -> false

let[@inline] is_nowhere_loc = function
  | Nowhere -> true
  | Eden | Survivor | Old | Region _ -> false

let[@inline] check t id =
  if id < 0 || id >= t.slot_count then
    invalid_arg "Obj_store: id out of bounds"

let[@inline] check_live t id =
  check t id;
  if t.locv.(id) = code_nowhere then invalid_arg "Obj_store.get: stale id"

let[@inline] is_live t id =
  id >= 0 && id < t.slot_count && t.locv.(id) <> code_nowhere

(* Per-id accessors compile to single unchecked word moves: every id a
   caller can legitimately hold is below [slot_count] (ids are only
   minted by [alloc] and recycled through the free list), so the array
   bounds check would re-prove a structural invariant on the simulator's
   hottest loads.  [is_live]/[check_live] remain the checked entry
   points for untrusted ids. *)
let[@inline] size t id = Array.unsafe_get t.sizev id
let[@inline] age t id = Array.unsafe_get t.agev id
let[@inline] set_age t id v = Array.unsafe_set t.agev id v
let[@inline] loc_code t id = Array.unsafe_get t.locv id
let[@inline] loc t id = loc_of_code (Array.unsafe_get t.locv id)
let[@inline] young_refs t id = Array.unsafe_get t.yrefv id

let[@inline] is_young t id = Array.unsafe_get t.locv id <= code_survivor
let[@inline] is_old t id = Array.unsafe_get t.locv id = code_old
let[@inline] is_nowhere t id = Array.unsafe_get t.locv id = code_nowhere

let[@inline] region_index t id =
  let c = Array.unsafe_get t.locv id in
  if c >= region_base then c - region_base else -1

let[@inline] in_region t id idx =
  Array.unsafe_get t.locv id = region_base + idx

let[@inline] set_loc t id l = Array.unsafe_set t.locv id (code_of_loc l)
let[@inline] set_loc_eden t id = Array.unsafe_set t.locv id code_eden
let[@inline] set_loc_survivor t id = Array.unsafe_set t.locv id code_survivor
let[@inline] set_loc_old t id = Array.unsafe_set t.locv id code_old
let[@inline] set_loc_region t id idx =
  Array.unsafe_set t.locv id (region_base + idx)

(* --- epoch-stamped marks --------------------------------------------- *)

(* A trace bumps the store's epoch and stamps reached objects with it;
   stamps from earlier traces are stale by construction, so there is no
   clearing pass.  Epoch 0 never marks (fresh and freed objects carry it). *)

let[@inline] begin_trace t = t.epoch <- t.epoch + 1

let[@inline] mark t id = Array.unsafe_set t.markv id t.epoch

let[@inline] is_marked t id = Array.unsafe_get t.markv id = t.epoch

let[@inline] unmark t id = Array.unsafe_set t.markv id 0

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
  t.agev <- extend t.agev;
  t.locv <- extend t.locv;
  t.markv <- extend t.markv;
  t.yrefv <- extend t.yrefv;
  t.ref_off <- extend t.ref_off;
  t.ref_len <- extend t.ref_len;
  t.ref_cap <- extend t.ref_cap;
  t.live_pos <- extend t.live_pos

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
     stores keep the per-allocation cost to the seven word writes. *)
  Array.unsafe_set t.sizev id size;
  Array.unsafe_set t.locv id code;
  Array.unsafe_set t.agev id 0;
  Array.unsafe_set t.markv id 0;
  Array.unsafe_set t.yrefv id 0;
  Array.unsafe_set t.live_pos id (Ivec.length t.live_list);
  Ivec.push t.live_list id;
  id

let alloc t ~size ~loc = alloc_code t ~size ~code:(code_of_loc loc)

let alloc_region t ~size ~region =
  alloc_code t ~size ~code:(region_base + region)

(* Core of [free] without the liveness checks, shared with the batch
   sweep kernels.  The [free_slots] push order decides future id
   recycling, which the goldens depend on — every caller must visit dead
   objects in the same order the checked per-object loop did. *)
let[@inline] free_unchecked t id =
  (* Only [locv] and [ref_len] need clearing.  [markv]/[yrefv] of a dead
     id are unreachable — every reader guards on location first
     ([code_nowhere] fails both the young and the not-nowhere tests) and
     [alloc_code] re-zeroes them on recycling — and [live_pos] is only
     read while live.  [ref_len] must drop to zero here: the recycled
     slot keeps its arena slice capacity but starts with no refs. *)
  Array.unsafe_set t.locv id code_nowhere;
  Array.unsafe_set t.ref_len id 0;
  (* Inlined swap-remove of the live-list slot: move the tail id into the
     vacated position and patch its back-pointer.  When [id] is itself
     the tail ([p = last]) the self-move is harmless and no patch is
     needed — identical to the checked original. *)
  let p = Array.unsafe_get t.live_pos id in
  let live = t.live_list in
  let moved = Ivec.unsafe_pop live in
  if p < Ivec.length live then begin
    Ivec.unsafe_set live p moved;
    Array.unsafe_set t.live_pos moved p
  end;
  Ivec.push t.free_slots id

let free t id =
  check t id;
  if t.locv.(id) = code_nowhere then invalid_arg "Obj_store.free: double free";
  free_unchecked t id

(* Retained for callers that still pass a host domain count: every heap
   kernel is sequential, so the value is ignored. *)
let set_default_gc_domains (_ : int) = ()

(* --- CSR edge arena --------------------------------------------------- *)

(* Slices grow by relocating to the bump end of the arena; the abandoned
   block counts as garbage.  When the arena itself runs out, it is rebuilt
   tight (slices packed in id order, capacities collapsed to lengths) into
   a store at least twice the live size — one deterministic path covering
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
  let ncap = ref (max 64 (Array.length t.edges)) in
  while !ncap < target * 2 do
    ncap := !ncap * 2
  done;
  let src = t.edges in
  let dst =
    if Array.length t.edges_spare >= !ncap then t.edges_spare
    else Array.make !ncap 0
  in
  let ref_off = t.ref_off and ref_len = t.ref_len and ref_cap = t.ref_cap in
  let pos = ref 0 in
  for id = 0 to t.slot_count - 1 do
    let len = ref_len.(id) in
    if len > 0 then Array.blit src ref_off.(id) dst !pos len;
    ref_off.(id) <- !pos;
    ref_cap.(id) <- len;
    pos := !pos + len
  done;
  t.edges_len <- !pos;
  t.edges <- dst;
  t.edges_spare <- (if src == dst then [||] else src);
  t.edges_garbage <- 0

let[@inline] reserve_edges t need =
  if t.edges_len + need > Array.length t.edges then rebuild_edges t need

let[@inline never] grow_ref t id =
  let ncap =
    let c = t.ref_cap.(id) in
    if c = 0 then 4 else c * 2
  in
  reserve_edges t ncap;
  (* re-read after a possible rebuild *)
  let off = t.ref_off.(id)
  and len = t.ref_len.(id)
  and cap = t.ref_cap.(id) in
  let noff = t.edges_len in
  Array.blit t.edges off t.edges noff len;
  t.edges_len <- noff + ncap;
  t.ref_off.(id) <- noff;
  t.ref_cap.(id) <- ncap;
  t.edges_garbage <- t.edges_garbage + cap

let[@inline] push_ref t id x =
  if t.ref_len.(id) = t.ref_cap.(id) then grow_ref t id;
  let len = t.ref_len.(id) in
  t.edges.(t.ref_off.(id) + len) <- x;
  t.ref_len.(id) <- len + 1

let[@inline] ref_count t id = t.ref_len.(id)

let[@inline] ref_at t id i = t.edges.(t.ref_off.(id) + i)

let iter_refs t id f =
  let off = t.ref_off.(id) in
  let edges = t.edges in
  for i = off to off + t.ref_len.(id) - 1 do
    f edges.(i)
  done

let refs_array t id = Array.sub t.edges t.ref_off.(id) t.ref_len.(id)

let refs_list t id = Array.to_list (refs_array t id)

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
  if t.locv.(to_) <= code_survivor then t.yrefv.(from) <- t.yrefv.(from) + 1;
  push_ref t from to_

let remove_ref t ~from ~to_ =
  check_live t from;
  let off = t.ref_off.(from) and n = t.ref_len.(from) in
  let edges = t.edges in
  let rec find i =
    if i >= n then -1 else if edges.(off + i) = to_ then i else find (i + 1)
  in
  let i = find 0 in
  if i >= 0 then begin
    edges.(off + i) <- edges.(off + n - 1);
    t.ref_len.(from) <- n - 1;
    if to_ >= 0 && to_ < t.slot_count && t.locv.(to_) <= code_survivor then
      t.yrefv.(from) <- t.yrefv.(from) - 1
  end

let clear_refs t id =
  check_live t id;
  t.ref_len.(id) <- 0;
  t.yrefv.(id) <- 0

let set_refs t id refs =
  check_live t id;
  let n = Array.length refs in
  if n > t.ref_cap.(id) then begin
    reserve_edges t n;
    let abandoned = t.ref_cap.(id) in
    t.ref_off.(id) <- t.edges_len;
    t.ref_cap.(id) <- n;
    t.edges_len <- t.edges_len + n;
    t.edges_garbage <- t.edges_garbage + abandoned
  end;
  t.ref_len.(id) <- 0;
  t.yrefv.(id) <- 0;
  let off = t.ref_off.(id) in
  for i = 0 to n - 1 do
    let r = refs.(i) in
    check_live t r;
    t.edges.(off + i) <- r;
    t.ref_len.(id) <- i + 1;
    if t.locv.(r) <= code_survivor then t.yrefv.(id) <- t.yrefv.(id) + 1
  done

let recount_young_refs t id =
  let off = t.ref_off.(id) in
  let edges = t.edges and locv = t.locv in
  let n = ref 0 in
  for i = off to off + t.ref_len.(id) - 1 do
    if locv.(edges.(i)) <= code_survivor then incr n
  done;
  t.yrefv.(id) <- !n

(* --- live-id iteration ------------------------------------------------ *)

(* The live list makes these O(live), not O(capacity): a heap that has
   shrunk does not pay for its peak.  Iteration sorts a copy — ids
   ascending is the order the O(capacity) scan gave, and downstream
   consumers (G1's remembered-set rebuild) depend on it. *)

let[@inline] live_count t = Ivec.length t.live_list

let sorted_live t =
  let a = Ivec.to_array t.live_list in
  Array.sort (fun (x : int) y -> compare x y) a;
  a

let live_ids t =
  let a = sorted_live t in
  let acc = Ivec.create ~capacity:(max 1 (Array.length a)) () in
  Array.iter (fun id -> Ivec.push acc id) a;
  acc

let iter_live t f = Array.iter f (sorted_live t)

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
  and ref_len = t.ref_len
  and markv = t.markv
  and locv = t.locv
  and ep = t.epoch in
  (* Unsafe accesses: [v] comes off the stack (a live id below every
     column's length) and [c] out of the edge arena, whose entries are
     ids the store itself wrote. *)
  while not (Ivec.is_empty stack) do
    let v = Ivec.unsafe_pop stack in
    let off = Array.unsafe_get ref_off v in
    for i = off to off + Array.unsafe_get ref_len v - 1 do
      let c = Array.unsafe_get edges i in
      let admit =
        match pred with
        | Trace_young -> Array.unsafe_get locv c <= code_survivor
        | Trace_live -> Array.unsafe_get locv c <> code_nowhere
        | Trace_regions rs ->
            let l = Array.unsafe_get locv c in
            l >= region_base && rs.(l - region_base)
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
   trace order it decides destinations — bump-packing, budget checks, registry pushes and used
   accounting are inherently ordered and stay sequential — and records
   each object's target location code and age with {!plan_push}.  Phase B
   (move) is this kernel: one pass applies the recorded writes to the
   [locv] and [agev] columns in plan order. *)

let[@inline never] grow_plan t =
  let cap = Array.length t.plan_ids in
  let ncap = if cap = 0 then 256 else cap * 2 in
  let extend col =
    let nd = Array.make ncap 0 in
    Array.blit col 0 nd 0 t.plan_n;
    nd
  in
  t.plan_ids <- extend t.plan_ids;
  t.plan_code <- extend t.plan_code;
  t.plan_age <- extend t.plan_age

let[@inline] plan_clear t = t.plan_n <- 0
let[@inline] plan_length t = t.plan_n

let[@inline] plan_push_code t id code age =
  let n = t.plan_n in
  if n = Array.length t.plan_ids then grow_plan t;
  t.plan_ids.(n) <- id;
  t.plan_code.(n) <- code;
  t.plan_age.(n) <- age;
  t.plan_n <- n + 1

let[@inline] plan_push t id ~loc ~age = plan_push_code t id (code_of_loc loc) age
let[@inline] plan_push_old t id ~age = plan_push_code t id code_old age
let[@inline] plan_push_survivor t id ~age = plan_push_code t id code_survivor age
let[@inline] plan_push_eden t id ~age = plan_push_code t id code_eden age

let[@inline] plan_push_region t id ~region ~age =
  plan_push_code t id (region_base + region) age

let finish_relocate t =
  let n = t.plan_n in
  let ids = t.plan_ids and code = t.plan_code and age = t.plan_age in
  let locv = t.locv and agev = t.agev in
  for i = 0 to n - 1 do
    let id = Array.unsafe_get ids i in
    Array.unsafe_set locv id (Array.unsafe_get code i);
    Array.unsafe_set agev id (Array.unsafe_get age i)
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
    if Array.unsafe_get locv id <= code_survivor then
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
      Array.unsafe_get locv id <> code_nowhere
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
   heals whatever the mutators did not touch.  Entries are epoch stamps:
   [fwd_begin] invalidates the whole table in O(1). *)

let[@inline never] grow_fwd t =
  let cap = max 64 (Array.length t.sizev) in
  let ext col =
    let nd = Array.make cap 0 in
    Array.blit col 0 nd 0 (Array.length col);
    nd
  in
  t.fwd_stampv <- ext t.fwd_stampv;
  t.fwd_healv <- ext t.fwd_healv

let fwd_begin t =
  if Array.length t.fwd_stampv < t.slot_count then grow_fwd t;
  t.fwd_epoch <- t.fwd_epoch + 1;
  Ivec.clear t.fwd_ids;
  t.fwd_pending <- 0;
  t.fwd_hits <- 0

let fwd_record t id =
  check t id;
  if Array.length t.fwd_stampv <= id then grow_fwd t;
  if t.fwd_stampv.(id) <> t.fwd_epoch then begin
    t.fwd_stampv.(id) <- t.fwd_epoch;
    Ivec.push t.fwd_ids id;
    t.fwd_pending <- t.fwd_pending + 1
  end

let[@inline] fwd_is_forwarded t id =
  id >= 0
  && id < Array.length t.fwd_stampv
  && Array.unsafe_get t.fwd_stampv id = t.fwd_epoch
  && Array.unsafe_get t.fwd_healv id <> t.fwd_epoch

let fwd_read t id =
  if fwd_is_forwarded t id then begin
    t.fwd_healv.(id) <- t.fwd_epoch;
    t.fwd_pending <- t.fwd_pending - 1;
    t.fwd_hits <- t.fwd_hits + 1;
    true
  end
  else false

let fwd_pending t = t.fwd_pending
let fwd_hits t = t.fwd_hits
let fwd_count t = Ivec.length t.fwd_ids

let fwd_heal_all t =
  let healed = ref 0 in
  Ivec.iter
    (fun id ->
      if t.fwd_healv.(id) <> t.fwd_epoch then begin
        t.fwd_healv.(id) <- t.fwd_epoch;
        incr healed
      end)
    t.fwd_ids;
  t.fwd_pending <- 0;
  Ivec.clear t.fwd_ids;
  !healed

(* Debug/bench introspection. *)
let edges_capacity t = Array.length t.edges
let edges_garbage t = t.edges_garbage
