module Vec = Gcperf_util.Int_vec
module Bitset = Gcperf_util.Bitset
module Int_table = Gcperf_util.Int_table

type region_kind = Free | Eden | Survivor | Old_region | Humongous

type region = {
  idx : int;
  mutable kind : region_kind;
  mutable used : int;
  objects : Vec.t;
  remset : Int_table.t;
  mutable live_bytes : int;
  mutable hum_len : int;
}

type t = {
  store : Obj_store.t;
  heap_bytes : int;
  region_size : int;
  regions : region array;
  mutable current_alloc : int;
  mutable free_count : int;
  free_bits : Bitset.t;
      (* membership mirror of [kind = Free]: the allocator's find-first
         is a word scan instead of a region-table walk *)
  mutable young_used : int;
  mutable old_hum_used : int;
  mutable total_used : int;
      (* exact sums of [used]: eden+survivor, old+humongous, every
         region; written only by [add_used], [set_kind] and the bump
         path of [alloc_young] *)
  mutable young_target_bytes : int;
  mutable allocated_bytes : int;
  mutable promoted_bytes : int;
  mark_list : Vec.t;
  trace_stack : Vec.t;
  movable : Vec.t;
}

(* [kind_eq] and the predicates below are pattern matches: [r.kind = k]
   on the variant would compile to a generic-compare C call inside loops
   that run once per region per allocation check. *)
let[@inline] kind_eq (a : region_kind) (b : region_kind) =
  match (a, b) with
  | Free, Free | Eden, Eden | Survivor, Survivor -> true
  | Old_region, Old_region | Humongous, Humongous -> true
  | _ -> false

let[@inline] is_free_kind = function
  | Free -> true
  | Eden | Survivor | Old_region | Humongous -> false

let[@inline] add_kind_bytes t kind bytes =
  match kind with
  | Eden | Survivor -> t.young_used <- t.young_used + bytes
  | Old_region | Humongous -> t.old_hum_used <- t.old_hum_used + bytes
  | Free -> ()

(* Every [kind] transition goes through here so [free_count], the free
   bitset and the occupancy totals stay exact (an O(1) [free_regions],
   [heap_used] and start-mark check, and an O(words) find-first — the
   allocation path consults them on every request, so a fold over the
   region table is a per-alloc tax).  The region's bytes move with it
   from the old kind's total to the new one's. *)
let[@inline] set_kind t r kind =
  (match (r.kind, kind) with
  | Free, Free -> ()
  | Free, _ ->
      t.free_count <- t.free_count - 1;
      Bitset.clear t.free_bits r.idx
  | _, Free ->
      t.free_count <- t.free_count + 1;
      Bitset.set t.free_bits r.idx
  | _, _ -> ());
  add_kind_bytes t r.kind (-r.used);
  add_kind_bytes t kind r.used;
  r.kind <- kind

(* The one writer of [used] outside the bump path of [alloc_young]. *)
let add_used t r delta =
  r.used <- r.used + delta;
  t.total_used <- t.total_used + delta;
  add_kind_bytes t r.kind delta

let mb = 1024 * 1024

let create store ~heap_bytes ?(target_regions = 1024) () =
  if heap_bytes <= 0 then invalid_arg "Region_heap.create: empty heap";
  let size = heap_bytes / target_regions in
  let region_size = Int.max mb (Int.min (32 * mb) size) in
  let n = Int.max 8 (heap_bytes / region_size) in
  let regions =
    Array.init n (fun idx ->
        {
          idx;
          kind = Free;
          used = 0;
          objects = Vec.create ();
          remset = Int_table.create 16;
          live_bytes = 0;
          hum_len = 0;
        })
  in
  let free_bits = Bitset.create ~capacity:n () in
  for i = 0 to n - 1 do
    Bitset.set free_bits i
  done;
  {
    store;
    heap_bytes;
    region_size;
    regions;
    current_alloc = -1;
    free_count = n;
    free_bits;
    young_used = 0;
    old_hum_used = 0;
    total_used = 0;
    young_target_bytes = region_size;
    allocated_bytes = 0;
    promoted_bytes = 0;
    mark_list = Vec.create ();
    trace_stack = Vec.create ();
    movable = Vec.create ();
  }

(* The young target is the adaptive knob G1 exposes: how many bytes of
   eden accumulate before a young collection.  Clamped to [one region,
   heap minus a small reserve] so the collector always has evacuation
   headroom.  Returns the target actually in effect. *)
let set_young_target t ~bytes =
  let n = Array.length t.regions in
  let reserve = Int.max 2 (n / 10) in
  let max_target = (n - reserve) * t.region_size in
  let clamped = Int.max t.region_size (Int.min bytes max_target) in
  t.young_target_bytes <- clamped;
  clamped

let region_of t id =
  let r = Obj_store.region_index t.store id in
  if r < 0 then invalid_arg "Region_heap.region_of: object not in a region"
  else t.regions.(r)

let count_kind t k =
  if is_free_kind k then t.free_count
  else
    Array.fold_left
      (fun acc r -> if kind_eq r.kind k then acc + 1 else acc)
      0 t.regions

let used_young t = t.young_used
let used_old_hum t = t.old_hum_used
let free_regions t = t.free_count
let heap_used t = t.total_used

let take_free_region t kind =
  if t.free_count = 0 then None
  else begin
    let i = Bitset.next_set t.free_bits 0 in
    if i < 0 then None
    else begin
      let r = t.regions.(i) in
      set_kind t r kind;
      add_used t r (-r.used);
      r.live_bytes <- 0;
      Some r
    end
  end

(* Places an object whose bytes the caller has already accounted. *)
let[@inline] place t r ~size =
  let id = Obj_store.alloc_region t.store ~size ~region:r.idx in
  Vec.push r.objects id;
  t.allocated_bytes <- t.allocated_bytes + size;
  id

let alloc_in_region t r ~size =
  if r.used + size > t.region_size then None
  else begin
    add_used t r size;
    Some (place t r ~size)
  end

let rec alloc_young t ~size =
  if size > t.region_size then
    invalid_arg "Region_heap.alloc_young: humongous object";
  if t.current_alloc >= 0 then begin
    let r = t.regions.(t.current_alloc) in
    if r.used + size <= t.region_size then begin
      (* [current_alloc] is always an Eden region (only this function
         sets it, [retire_region] clears it, and nothing else changes an
         Eden region's kind), so the bytes go straight to the young total
         with no match on the kind. *)
      r.used <- r.used + size;
      t.young_used <- t.young_used + size;
      t.total_used <- t.total_used + size;
      Some (place t r ~size)
    end
    else begin
      t.current_alloc <- -1;
      alloc_young t ~size
    end
  end
  else begin
    match take_free_region t Eden with
    | None -> None
    | Some r ->
        t.current_alloc <- r.idx;
        alloc_young t ~size
  end

let is_humongous t ~size = size > t.region_size / 2

(* Humongous objects occupy a contiguous run of [ceil(size/region_size)]
   dedicated regions, as in G1.  The object id is recorded in the head
   region, which also remembers the group length; each region of the group
   carries its share of the bytes so per-region accounting stays exact. *)
let alloc_humongous t ~size =
  let needed = (size + t.region_size - 1) / t.region_size in
  let n = Array.length t.regions in
  (* First contiguous run of [needed] free regions. *)
  let rec find_run start =
    if start + needed > n then None
    else begin
      let rec check i =
        i >= needed || (is_free_kind t.regions.(start + i).kind && check (i + 1))
      in
      if check 0 then Some start else find_run (start + 1)
    end
  in
  match find_run 0 with
  | None -> None
  | Some start ->
      let head = t.regions.(start) in
      let id = Obj_store.alloc_region t.store ~size ~region:start in
      Vec.push head.objects id;
      head.hum_len <- needed;
      let remaining = ref size in
      for i = start to start + needed - 1 do
        let r = t.regions.(i) in
        set_kind t r Humongous;
        let chunk = Int.min !remaining t.region_size in
        add_used t r (chunk - r.used);
        r.live_bytes <- chunk;
        remaining := !remaining - chunk
      done;
      t.allocated_bytes <- t.allocated_bytes + size;
      Some id

let release_humongous t id =
  Obj_store.check_live t.store id;
  match Obj_store.region_index t.store id with
  | start when start >= 0 ->
      let head = t.regions.(start) in
      if head.hum_len <= 0 then
        invalid_arg "Region_heap.release_humongous: not a humongous head";
      for i = start to start + head.hum_len - 1 do
        let r = t.regions.(i) in
        Vec.clear r.objects;
        set_kind t r Free;
        add_used t r (-r.used);
        r.live_bytes <- 0;
        r.hum_len <- 0
      done;
      Obj_store.free t.store id
  | _ -> invalid_arg "Region_heap.release_humongous: not region-allocated"

(* Humongous regions are never in a collection set, so nothing reads
   their remsets: they stay empty, and a region leaves the humongous
   kind with nothing to reset. *)
let remember t ~src ~src_region child =
  let rc = Obj_store.region_index t.store child in
  if rc >= 0 && rc <> src_region then
    let r = t.regions.(rc) in
    match r.kind with
    | Humongous -> ()
    | Free | Eden | Survivor | Old_region -> Int_table.replace r.remset src

let record_store t ~parent ~child =
  Obj_store.add_ref t.store ~from:parent ~to_:child;
  let rp = Obj_store.region_index t.store parent in
  if rp >= 0 then remember t ~src:parent ~src_region:rp child

let remove_store t ~parent ~child =
  Obj_store.remove_ref t.store ~from:parent ~to_:child

let compact_region_objects t r =
  Vec.filter_in_place
    (fun id -> Obj_store.in_region t.store id r.idx)
    r.objects

let retire_region t r =
  Vec.clear r.objects;
  Int_table.reset r.remset;
  set_kind t r Free;
  add_used t r (-r.used);
  r.live_bytes <- 0;
  r.hum_len <- 0;
  if t.current_alloc = r.idx then t.current_alloc <- -1

let release_region t r =
  Vec.iter
    (fun id ->
      if Obj_store.in_region t.store id r.idx then Obj_store.free t.store id)
    r.objects;
  retire_region t r

let eden_regions t =
  Array.to_list t.regions
  |> List.filter (fun r -> match r.kind with Eden -> true | _ -> false)

let check_invariants t =
  (* Recompute per-region occupancy from the store; humongous groups put
     their bytes in dedicated regions, handled via the head region. *)
  let actual = Array.make (Array.length t.regions) 0 in
  let err = ref None in
  Obj_store.iter_live t.store (fun id ->
      match Obj_store.loc t.store id with
      | Obj_store.Region r ->
          if t.regions.(r).kind = Humongous then begin
            (* Spread over the group exactly as the allocator did. *)
            let remaining = ref (Obj_store.size t.store id) and idx = ref r in
            while !remaining > 0 do
              if
                !idx >= Array.length t.regions
                || t.regions.(!idx).kind <> Humongous
              then begin
                err := Some "humongous group truncated";
                remaining := 0
              end
              else begin
                let chunk = Int.min !remaining t.region_size in
                actual.(!idx) <- actual.(!idx) + chunk;
                remaining := !remaining - chunk;
                incr idx
              end
            done
          end
          else actual.(r) <- actual.(r) + Obj_store.size t.store id
      | Obj_store.Eden | Obj_store.Survivor | Obj_store.Old | Obj_store.Nowhere
        ->
          ());
  match !err with
  | Some e -> Error e
  | None ->
      let bad = ref None in
      let actual_free =
        Array.fold_left
          (fun acc r -> if is_free_kind r.kind then acc + 1 else acc)
          0 t.regions
      in
      if actual_free <> t.free_count then
        bad :=
          Some
            (Printf.sprintf "free_count drift: tracked %d actual %d"
               t.free_count actual_free);
      let young = ref 0 and old_hum = ref 0 and total = ref 0 in
      Array.iter
        (fun r ->
          total := !total + r.used;
          match r.kind with
          | Eden | Survivor -> young := !young + r.used
          | Old_region | Humongous -> old_hum := !old_hum + r.used
          | Free -> ())
        t.regions;
      List.iter
        (fun (what, tracked, actual) ->
          if !bad = None && tracked <> actual then
            bad :=
              Some
                (Printf.sprintf "%s drift: tracked %d actual %d" what tracked
                   actual))
        [
          ("young occupancy", t.young_used, !young);
          ("old+humongous occupancy", t.old_hum_used, !old_hum);
          ("heap occupancy", t.total_used, !total);
        ];
      if
        !bad = None && t.current_alloc >= 0
        && not (kind_eq t.regions.(t.current_alloc).kind Eden)
      then
        bad :=
          Some
            (Printf.sprintf "allocation region %d is not eden" t.current_alloc);
      Array.iteri
        (fun i r ->
          if !bad = None then begin
            if r.kind = Free && r.used <> 0 then
              bad := Some (Printf.sprintf "free region %d not empty" i)
            else if r.used <> actual.(i) then
              bad :=
                Some
                  (Printf.sprintf "region %d accounting: tracked %d actual %d"
                     i r.used actual.(i))
            else if r.kind <> Humongous && r.used > t.region_size then
              bad := Some (Printf.sprintf "region %d over-full" i)
          end)
        t.regions;
      (match !bad with Some e -> Error e | None -> Ok ())
