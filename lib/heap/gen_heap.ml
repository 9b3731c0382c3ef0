module Vec = Gcperf_util.Int_vec
module Int_table = Gcperf_util.Int_table

type t = {
  store : Obj_store.t;
  heap_bytes : int;
  mutable young_bytes : int;
  mutable eden_cap : int;
  mutable survivor_cap : int;
  mutable old_cap : int;
  mutable survivor_ratio : int;
  mutable eden_used : int;
  mutable survivor_used : int;
  mutable old_used : int;
  mutable tenuring_threshold : int;
  young_ids : Vec.t;
  old_ids : Vec.t;
  cards : Int_table.t;
  mutable allocated_bytes : int;
  mutable promoted_bytes : int;
  (* Per-collection scratch, hoisted so steady-state collections allocate
     nothing in the host runtime.  Owned by the collection algorithms in
     gcperf.gc; contents are only valid within one collection. *)
  mark_list : Vec.t;
  trace_stack : Vec.t;
  promote_scratch : Vec.t;
  keep_scratch : Vec.t;
  recheck_scratch : Vec.t;
  mutable age_bytes : int array;
}

let create store ~heap_bytes ~young_bytes ?(survivor_ratio = 8)
    ?(tenuring_threshold = 6) () =
  if young_bytes > heap_bytes then
    invalid_arg "Gen_heap.create: young generation larger than heap";
  if young_bytes <= 0 then invalid_arg "Gen_heap.create: empty young gen";
  (* eden : survivor : survivor = ratio : 1 : 1 *)
  let survivor_cap = young_bytes / (survivor_ratio + 2) in
  let eden_cap = young_bytes - (2 * survivor_cap) in
  {
    store;
    heap_bytes;
    young_bytes;
    eden_cap;
    survivor_cap;
    old_cap = heap_bytes - young_bytes;
    survivor_ratio;
    eden_used = 0;
    survivor_used = 0;
    old_used = 0;
    tenuring_threshold;
    young_ids = Vec.create ();
    old_ids = Vec.create ();
    cards = Int_table.create 256;
    allocated_bytes = 0;
    promoted_bytes = 0;
    mark_list = Vec.create ();
    trace_stack = Vec.create ();
    promote_scratch = Vec.create ();
    keep_scratch = Vec.create ();
    recheck_scratch = Vec.create ();
    age_bytes = [||];
  }

let young_used t = t.eden_used + t.survivor_used

let heap_used t = young_used t + t.old_used

let eden_free t = t.eden_cap - t.eden_used

let old_free t = t.old_cap - t.old_used

(* Moving the young/old boundary never moves objects: the new layout must
   keep every currently occupied space within its (possibly smaller)
   capacity, or the request is rounded up/refused.  Callers (the adaptive
   sizing policy) only invoke this at safepoints, between collections. *)
let resize_young t ~young_bytes ~survivor_ratio =
  let ratio = Int.max 1 survivor_ratio in
  (* Smallest young size whose survivor and eden halves still cover the
     current occupancy: survivor_cap = y/(ratio+2) >= survivor_used and
     eden_cap = y - 2*survivor_cap >= eden_used. *)
  let min_for_survivor = t.survivor_used * (ratio + 2) in
  let min_for_eden =
    (* eden_cap >= y * ratio/(ratio+2) - 2, so this bound is sufficient *)
    ((t.eden_used + 2) * (ratio + 2) / ratio) + 1
  in
  let y = Int.max young_bytes (Int.max min_for_survivor min_for_eden) in
  let y = Int.min y (t.heap_bytes - t.old_used) in
  let survivor_cap = y / (ratio + 2) in
  let eden_cap = y - (2 * survivor_cap) in
  if
    y <= 0 || eden_cap < t.eden_used
    || survivor_cap < t.survivor_used
    || t.heap_bytes - y < t.old_used
  then (t.young_bytes, t.survivor_ratio)
  else begin
    t.young_bytes <- y;
    t.survivor_ratio <- ratio;
    t.eden_cap <- eden_cap;
    t.survivor_cap <- survivor_cap;
    t.old_cap <- t.heap_bytes - y;
    (y, ratio)
  end

(* Option-free variant for the per-allocation hot path: [-1] means eden
   cannot fit the object.  [alloc_eden] keeps the option interface for
   callers off the hot path. *)
let[@inline] alloc_eden_id t ~size =
  if size > eden_free t then -1
  else begin
    let id = Obj_store.alloc t.store ~size ~loc:Obj_store.Eden in
    t.eden_used <- t.eden_used + size;
    t.allocated_bytes <- t.allocated_bytes + size;
    Vec.push t.young_ids id;
    id
  end

let alloc_eden t ~size =
  let id = alloc_eden_id t ~size in
  if id < 0 then None else Some id

let alloc_old_direct t ~size =
  if size > old_free t then None
  else begin
    let id = Obj_store.alloc t.store ~size ~loc:Obj_store.Old in
    t.old_used <- t.old_used + size;
    t.allocated_bytes <- t.allocated_bytes + size;
    Vec.push t.old_ids id;
    Some id
  end

(* --- remembered set ---------------------------------------------------

   The dirty set tracks old objects that may hold references into the
   young generation.  It is an [Int_table], the simulator's one
   hash-order set: the survivor-overflow decisions depend on the order
   card children enter a trace, and that order has always been a hash
   table's bucket order, so the set iterates in [Hashtbl] order and
   results stay bit-for-bit.

   Like a hardware card table, a card stays dirty until a collection
   cleans it: a mutator that overwrites its last young reference does not
   clean the card, so iteration can visit old objects with no remaining
   young refs (the scan then finds nothing young — that wasted work is
   exactly what real card scanning pays).  {!refresh_cards} restores
   exactness after every young collection from the per-object
   [young_refs] counters; {!rebuild_cards} re-derives the set from the
   old registry after a full collection. *)

let card_mark t id = Int_table.replace t.cards id

let iter_dirty t f =
  Int_table.iter (fun id -> if Obj_store.is_old t.store id then f id) t.cards

let card_is_dirty t id =
  Int_table.mem t.cards id && Obj_store.is_old t.store id

let dirty_count t =
  let n = ref 0 in
  iter_dirty t (fun _ -> incr n);
  !n

(* Dead entries linger until the next refresh, and their ids can be
   recycled meanwhile (the concurrent sweep frees old objects without
   touching cards); a recycled id is scanned again whatever space it now
   occupies.  Remark has always charged card bytes that way. *)
let dirty_live_bytes t =
  let bytes = ref 0 in
  Int_table.iter
    (fun id ->
      if not (Obj_store.is_nowhere t.store id) then
        bytes := !bytes + Obj_store.size t.store id)
    t.cards;
  !bytes

let[@inline] consider_card t id =
  if Obj_store.is_old t.store id then begin
    Obj_store.recount_young_refs t.store id;
    if Obj_store.young_refs t.store id > 0 then card_mark t id
  end

let refresh_cards t ~extra =
  (* Recheck in table order — the order re-insertion has always used. *)
  Vec.clear t.recheck_scratch;
  Int_table.iter (fun id -> Vec.push t.recheck_scratch id) t.cards;
  Int_table.reset t.cards;
  Vec.iter (fun id -> consider_card t id) t.recheck_scratch;
  Vec.iter (fun id -> consider_card t id) extra

let rebuild_cards t =
  Int_table.reset t.cards;
  (* Object sizes are positive, so zero young bytes means no young
     objects: every recount would find 0 young refs and mark nothing.
     Consumers never read the counters without recounting first, so the
     stale [young_refs] values left behind are unobservable. *)
  if t.eden_used > 0 || t.survivor_used > 0 then
    Vec.iter (fun id -> consider_card t id) t.old_ids

let record_store t ~parent ~child =
  Obj_store.add_ref t.store ~from:parent ~to_:child;
  if Obj_store.is_old t.store parent && Obj_store.is_young t.store child then
    card_mark t parent

let remove_store t ~parent ~child =
  Obj_store.remove_ref t.store ~from:parent ~to_:child

let compact_old_ids t =
  let store = t.store in
  Vec.filter_in_place (fun id -> Obj_store.is_old store id) t.old_ids

let compact_registries t =
  let store = t.store in
  Vec.filter_in_place (fun id -> Obj_store.is_young store id) t.young_ids;
  compact_old_ids t

let check_invariants t =
  let eden = ref 0 and survivor = ref 0 and old = ref 0 in
  Obj_store.iter_live t.store (fun id ->
      let size = Obj_store.size t.store id in
      match Obj_store.loc t.store id with
      | Obj_store.Eden -> eden := !eden + size
      | Obj_store.Survivor -> survivor := !survivor + size
      | Obj_store.Old -> old := !old + size
      | Obj_store.Region _ | Obj_store.Nowhere -> ());
  let check name expected actual cap =
    if expected <> actual then
      Error
        (Printf.sprintf "%s accounting mismatch: tracked %d, actual %d" name
           actual expected)
    else if actual > cap then
      Error (Printf.sprintf "%s over capacity: %d > %d" name actual cap)
    else Ok ()
  in
  match check "eden" !eden t.eden_used t.eden_cap with
  | Error _ as e -> e
  | Ok () -> (
      match check "survivor" !survivor t.survivor_used t.survivor_cap with
      | Error _ as e -> e
      | Ok () -> check "old" !old t.old_used t.old_cap)
