(* Tests for the heap substrate: object store, generational layout with
   card table, and the G1 region layout with remembered sets. *)

module Vec = Gcperf_util.Int_vec
module Os = Gcperf_heap.Obj_store
module Gh = Gcperf_heap.Gen_heap
module Rh = Gcperf_heap.Region_heap

let mb = 1024 * 1024

(* --- Obj_store ------------------------------------------------------ *)

let test_store_alloc_free () =
  let s = Os.create () in
  let a = Os.alloc s ~size:100 ~loc:Os.Eden in
  let b = Os.alloc s ~size:200 ~loc:Os.Old in
  Alcotest.(check int) "live" 2 (Os.live_count s);
  Alcotest.(check bool) "a live" true (Os.is_live s a);
  Os.free s a;
  Alcotest.(check bool) "a freed" false (Os.is_live s a);
  Alcotest.(check int) "live after free" 1 (Os.live_count s);
  Alcotest.(check bool) "b untouched" true (Os.is_live s b)

let test_store_recycles_slots () =
  let s = Os.create () in
  let a = Os.alloc s ~size:10 ~loc:Os.Eden in
  Os.free s a;
  let b = Os.alloc s ~size:20 ~loc:Os.Eden in
  Alcotest.(check int) "slot reused" a b;
  Alcotest.(check int) "capacity stable" 1 (Os.capacity s);
  Alcotest.(check int) "fresh size" 20 (Os.size s b);
  Alcotest.(check int) "fresh age" 0 (Os.age s b);
  Alcotest.(check int) "no stale refs" 0 (Os.ref_count s b)

let test_store_double_free () =
  let s = Os.create () in
  let a = Os.alloc s ~size:10 ~loc:Os.Eden in
  Os.free s a;
  Alcotest.check_raises "double free"
    (Invalid_argument "Obj_store.free: double free") (fun () -> Os.free s a)

let test_store_stale_get () =
  let s = Os.create () in
  let a = Os.alloc s ~size:10 ~loc:Os.Eden in
  Os.free s a;
  Alcotest.check_raises "stale get"
    (Invalid_argument "Obj_store.get: stale id") (fun () ->
      Os.check_live s a)

let test_store_refs () =
  let s = Os.create () in
  let a = Os.alloc s ~size:10 ~loc:Os.Eden in
  let b = Os.alloc s ~size:10 ~loc:Os.Eden in
  Os.add_ref s ~from:a ~to_:b;
  Os.add_ref s ~from:a ~to_:b;
  Alcotest.(check int) "two refs" 2 (Os.ref_count s a);
  Os.remove_ref s ~from:a ~to_:b;
  Alcotest.(check int) "one removed" 1 (Os.ref_count s a);
  Os.set_refs s a [||];
  Alcotest.(check int) "cleared" 0 (Os.ref_count s a)

let test_store_live_ids () =
  let s = Os.create () in
  let a = Os.alloc s ~size:1 ~loc:Os.Eden in
  let b = Os.alloc s ~size:1 ~loc:Os.Eden in
  let c = Os.alloc s ~size:1 ~loc:Os.Eden in
  Os.free s b;
  Alcotest.(check (list int)) "live ids" [ a; c ] (Vec.to_list (Os.live_ids s))

(* --- SoA store vs reference model ----------------------------------- *)

(* The struct-of-arrays columns and the CSR edge arena (slice relocation,
   slot recycling, arena rebuild) must be observationally equivalent to
   the obvious record-per-object implementation under any interleaving of
   mutator operations.  The model mirrors [remove_ref]'s swap-with-last
   exactly: reference *order* is part of the contract, since trace
   discovery order (and every artifact downstream) depends on it. *)
type model_obj = {
  mutable m_size : int;
  mutable m_loc : Os.location;
  mutable m_age : int;
  mutable m_refs : int array;
}

let loc_of_int b =
  match b mod 4 with
  | 0 -> Os.Eden
  | 1 -> Os.Survivor
  | 2 -> Os.Old
  | _ -> Os.Region (b mod 8)

let prop_store_model =
  QCheck.Test.make ~name:"SoA store matches a record-based model" ~count:300
    QCheck.(list (triple (int_bound 7) (int_bound 999) (int_bound 999)))
    (fun ops ->
      let s = Os.create () in
      let model : (int, model_obj) Hashtbl.t = Hashtbl.create 64 in
      let live = ref [] in
      let pick n = List.nth !live (n mod List.length !live) in
      let model_young id =
        match Hashtbl.find_opt model id with
        | Some { m_loc = Os.Eden | Os.Survivor; _ } -> true
        | Some _ | None -> false
      in
      List.iter
        (fun (tag, a, b) ->
          match tag with
          | 0 ->
              let size = (a mod 1000) + 1 in
              let loc = loc_of_int b in
              let id = Os.alloc s ~size ~loc in
              Hashtbl.replace model id
                { m_size = size; m_loc = loc; m_age = 0; m_refs = [||] };
              live := id :: !live
          | 1 when !live <> [] ->
              let id = pick a in
              Os.free s id;
              let m = Hashtbl.find model id in
              m.m_loc <- Os.Nowhere;
              m.m_refs <- [||];
              live := List.filter (fun x -> x <> id) !live
          | 2 when !live <> [] ->
              let from = pick a and to_ = pick b in
              Os.add_ref s ~from ~to_;
              let m = Hashtbl.find model from in
              m.m_refs <- Array.append m.m_refs [| to_ |]
          | 3 when !live <> [] ->
              let from = pick a and to_ = pick b in
              Os.remove_ref s ~from ~to_;
              let m = Hashtbl.find model from in
              let n = Array.length m.m_refs in
              let rec find i =
                if i >= n then -1
                else if m.m_refs.(i) = to_ then i
                else find (i + 1)
              in
              let i = find 0 in
              if i >= 0 then begin
                let refs = Array.sub m.m_refs 0 (n - 1) in
                if i < n - 1 then refs.(i) <- m.m_refs.(n - 1);
                m.m_refs <- refs
              end
          | 4 when !live <> [] ->
              let from = pick a in
              let refs = Array.init (b mod 5) (fun i -> pick (a + i)) in
              Os.set_refs s from refs;
              (Hashtbl.find model from).m_refs <- Array.copy refs
          | 5 when !live <> [] ->
              (* The incremental young-ref counter may drift when children
                 die; [recount_young_refs] resynchronises it, after which
                 it must equal the model's on-demand count. *)
              let id = pick a in
              Os.recount_young_refs s id;
              let m = Hashtbl.find model id in
              let expect =
                Array.fold_left
                  (fun acc r -> if model_young r then acc + 1 else acc)
                  0 m.m_refs
              in
              if Os.young_refs s id <> expect then
                QCheck.Test.fail_reportf "young_refs %d: store %d model %d" id
                  (Os.young_refs s id) expect
          | 6 when !live <> [] ->
              (* Relocation rewrites the packed location/age word.  The
                 edge ages are drawn often: 15 and 16, the oldest young
                 collections produce, and [max_age], where G1's mixed
                 collections saturate. *)
              let id = pick a in
              let loc = loc_of_int (b / 17) in
              let age =
                match b mod 5 with
                | 0 -> 15
                | 1 -> 16
                | 2 -> Os.max_age
                | _ -> b mod 17
              in
              Os.plan_clear s;
              Os.plan_push s id ~loc ~age;
              ignore (Os.finish_relocate s);
              let m = Hashtbl.find model id in
              m.m_loc <- loc;
              m.m_age <- age
          | 7 when !live <> [] ->
              (* A burst of up to 20 appends doubles one slice's capacity
                 past 4 -> 8 -> 16 through the packed length/capacity
                 word. *)
              let from = pick a in
              let m = Hashtbl.find model from in
              for i = 0 to b mod 20 do
                let to_ = pick (b + i) in
                Os.add_ref s ~from ~to_;
                m.m_refs <- Array.append m.m_refs [| to_ |]
              done
          | _ -> ())
        ops;
      let sorted_live = List.sort compare !live in
      if Os.live_count s <> List.length !live then
        QCheck.Test.fail_report "live_count mismatch";
      if Vec.to_list (Os.live_ids s) <> sorted_live then
        QCheck.Test.fail_report "live_ids mismatch";
      List.iter
        (fun id ->
          let m = Hashtbl.find model id in
          if Os.size s id <> m.m_size then
            QCheck.Test.fail_reportf "size mismatch for %d" id;
          if Os.loc s id <> m.m_loc then
            QCheck.Test.fail_reportf "loc mismatch for %d" id;
          if Os.age s id <> m.m_age then
            QCheck.Test.fail_reportf "age mismatch for %d: store %d model %d"
              id (Os.age s id) m.m_age;
          if Os.ref_count s id <> Array.length m.m_refs then
            QCheck.Test.fail_reportf "ref_count mismatch for %d" id;
          if Os.refs_list s id <> Array.to_list m.m_refs then
            QCheck.Test.fail_reportf "refs mismatch for %d" id)
        sorted_live;
      true)

(* --- parallel relocation determinism --------------------------------- *)

(* Random object graphs from a seeded LCG: cycles, duplicate edges,
   dangling references to freed objects, every location kind. *)
let build_graph seed0 =
  let s = Os.create () in
  let state = ref (seed0 land 0x3FFFFFFF) in
  let rand n =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state mod n
  in
  let n = 200 + rand 200 in
  let ids =
    Array.init n (fun _ ->
        let loc =
          match rand 5 with
          | 0 -> Os.Eden
          | 1 -> Os.Survivor
          | 2 -> Os.Old
          | 3 -> Os.Region (rand 4)
          | _ -> Os.Region (4 + rand 4)
        in
        Os.alloc s ~size:(1 + rand 512) ~loc)
  in
  Array.iter
    (fun id ->
      for _ = 1 to rand 5 do
        Os.add_ref s ~from:id ~to_:ids.(rand n)
      done)
    ids;
  (* Free a slice so traces meet dangling references and recycled slots. *)
  Array.iter (fun id -> if rand 10 = 0 then Os.free s id) ids;
  let seeds =
    Array.to_list ids
    |> List.filter (fun id -> Os.is_live s id && rand 3 = 0)
  in
  (s, seeds)

(* The move half of a relocation must land every planned object at
   exactly its planned location and age, and leave every unplanned
   object as it was. *)
let prop_finish_relocate =
  QCheck.Test.make ~count:60 ~name:"finish_relocate applies the plan"
    QCheck.(int_bound 1_000_000)
    (fun seed0 ->
      let s, _ = build_graph seed0 in
      let state = ref ((seed0 * 31) land 0x3FFFFFFF) in
      let rand n =
        state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
        !state mod n
      in
      let planned = Hashtbl.create 64 and unplanned = ref [] in
      Os.plan_clear s;
      Os.iter_live s (fun id ->
          let plan loc age =
            Os.plan_push s id ~loc ~age;
            Hashtbl.replace planned id (loc, age)
          in
          match rand 6 with
          | 0 -> plan Os.Old (Os.age s id)
          | 1 -> plan Os.Survivor (Os.age s id + 1)
          | 2 -> plan Os.Eden 0
          | 3 -> plan (Os.Region (rand 8)) (rand 16)
          | _ -> unplanned := (id, Os.loc s id, Os.age s id) :: !unplanned);
      let moved = Os.finish_relocate s in
      moved = Hashtbl.length planned
      && Os.plan_length s = 0
      && Hashtbl.fold
           (fun id (loc, age) ok ->
             ok && Os.loc s id = loc && Os.age s id = age)
           planned true
      && List.for_all
           (fun (id, loc, age) -> Os.loc s id = loc && Os.age s id = age)
           !unplanned)

(* The age shares the location word: an age outside its five bits must
   be refused at plan time rather than corrupt the location code. *)
let test_plan_age_range () =
  let s = Os.create () in
  let id = Os.alloc s ~size:8 ~loc:Os.Eden in
  let refused name push =
    List.iter
      (fun age ->
        match push age with
        | () -> Alcotest.failf "%s accepted age %d" name age
        | exception Invalid_argument _ -> ())
      [ -1; 32; 1000 ]
  in
  refused "plan_push" (fun age -> Os.plan_push s id ~loc:Os.Old ~age);
  refused "plan_push_old" (fun age -> Os.plan_push_old s id ~age);
  refused "plan_push_survivor" (fun age -> Os.plan_push_survivor s id ~age);
  refused "plan_push_eden" (fun age -> Os.plan_push_eden s id ~age);
  refused "plan_push_region" (fun age ->
      Os.plan_push_region s id ~region:3 ~age);
  Alcotest.(check int) "nothing planned" 0 (Os.plan_length s);
  Os.plan_push_region s id ~region:3 ~age:31;
  Alcotest.(check int) "moved" 1 (Os.finish_relocate s);
  Alcotest.(check int) "max age kept" 31 (Os.age s id);
  Alcotest.(check bool) "region kept" true (Os.in_region s id 3)

(* --- forwarding table vs a two-array model ---------------------------- *)

(* The forwarding table packs each slot's phase stamp and healed flag
   into one word.  The model is the two-array layout it replaced: a
   stamp array (recorded in epoch e) and a heal array (healed in epoch
   e), both zero-filled, with the epoch starting at 0 — so nothing is
   forwarded before the first [fwd_begin], and every read, heal-all and
   pending count must agree across epochs and table growth. *)
let prop_forwarding_model =
  let op =
    QCheck.oneof
      [
        QCheck.map (fun i -> `Record i) QCheck.small_nat;
        QCheck.map (fun i -> `Read i) QCheck.small_nat;
        QCheck.always `Heal_all;
        QCheck.always `Begin;
        QCheck.always `Alloc;
      ]
  in
  QCheck.Test.make ~count:300 ~name:"forwarding word matches a two-array model"
    (QCheck.list_of_size (QCheck.Gen.int_range 0 150) op)
    (fun ops ->
      let s = Os.create () in
      let n = ref 0 in
      let alloc () =
        ignore (Os.alloc s ~size:16 ~loc:Os.Old);
        incr n
      in
      for _ = 1 to 8 do
        alloc ()
      done;
      let cap = 256 in
      let stamp = Array.make cap 0 and heal = Array.make cap 0 in
      let epoch = ref 0 and recorded = ref [] and pending = ref 0 in
      let fail fmt = QCheck.Test.fail_reportf fmt in
      for id = 0 to !n - 1 do
        if Os.fwd_read s id then fail "id %d forwarded before fwd_begin" id
      done;
      List.iter
        (fun op ->
          (match op with
          | `Record i ->
              let id = i mod !n in
              Os.fwd_record s id;
              if stamp.(id) <> !epoch then begin
                stamp.(id) <- !epoch;
                recorded := id :: !recorded;
                incr pending
              end
          | `Read i ->
              let id = i mod !n in
              let expect = stamp.(id) = !epoch && heal.(id) <> !epoch in
              if expect then begin
                heal.(id) <- !epoch;
                decr pending
              end;
              let got = Os.fwd_read s id in
              if got <> expect then
                fail "read %d at epoch %d: store %b model %b" id !epoch got
                  expect
          | `Heal_all ->
              let expect =
                List.fold_left
                  (fun acc id ->
                    if heal.(id) <> !epoch then begin
                      heal.(id) <- !epoch;
                      acc + 1
                    end
                    else acc)
                  0 !recorded
              in
              recorded := [];
              pending := 0;
              let got = Os.fwd_heal_all s in
              if got <> expect then
                fail "heal_all at epoch %d: store %d model %d" !epoch got
                  expect
          | `Begin ->
              Os.fwd_begin s;
              incr epoch;
              recorded := [];
              pending := 0
          | `Alloc -> if !n < cap then alloc ());
          if Os.fwd_pending s <> !pending then
            fail "pending at epoch %d: store %d model %d" !epoch
              (Os.fwd_pending s) !pending)
        ops;
      true)

(* --- host footprint ---------------------------------------------------- *)

(* The ROADMAP bound on the store's host footprint: at most 16 words per
   live object, counted over every block the store reaches.  The fill
   stops just past a power-of-two slot count, where the doubled columns
   carry the most slack, and every object holds one reference. *)
let test_store_census () =
  let s = Os.create () in
  let n = (1 lsl 14) + 1 in
  let prev = ref (Os.alloc s ~size:64 ~loc:Os.Old) in
  Os.add_ref s ~from:!prev ~to_:!prev;
  for _ = 2 to n do
    let id = Os.alloc s ~size:64 ~loc:Os.Old in
    Os.add_ref s ~from:id ~to_:!prev;
    prev := id
  done;
  Alcotest.(check int) "live" n (Os.live_count s);
  let words = Obj.reachable_words (Obj.repr s) in
  let per_object = float_of_int words /. float_of_int n in
  if per_object > 16.0 then
    Alcotest.failf "%.2f host words per live object (bound 16)" per_object

(* --- Gen_heap ------------------------------------------------------- *)

let make_gen () =
  let s = Os.create () in
  (s, Gh.create s ~heap_bytes:(100 * mb) ~young_bytes:(20 * mb) ())

let test_gen_layout () =
  let _, h = make_gen () in
  (* SurvivorRatio 8: eden = 8/10 young, survivors = 1/10 each. *)
  Alcotest.(check int) "eden" (16 * mb) h.Gh.eden_cap;
  Alcotest.(check int) "survivor" (2 * mb) h.Gh.survivor_cap;
  Alcotest.(check int) "old" (80 * mb) h.Gh.old_cap

let test_gen_bad_config () =
  let s = Os.create () in
  Alcotest.check_raises "young > heap"
    (Invalid_argument "Gen_heap.create: young generation larger than heap")
    (fun () -> ignore (Gh.create s ~heap_bytes:10 ~young_bytes:20 ()))

let test_gen_alloc_eden () =
  let _, h = make_gen () in
  (match Gh.alloc_eden h ~size:mb with
  | Some _ -> ()
  | None -> Alcotest.fail "eden alloc failed");
  Alcotest.(check int) "eden used" mb h.Gh.eden_used;
  Alcotest.(check int) "allocated counter" mb h.Gh.allocated_bytes;
  (* Fill it up. *)
  (match Gh.alloc_eden h ~size:(15 * mb) with
  | Some _ -> ()
  | None -> Alcotest.fail "should fit");
  Alcotest.(check bool) "now full" true (Gh.alloc_eden h ~size:mb = None)

let test_gen_alloc_old_direct () =
  let _, h = make_gen () in
  (match Gh.alloc_old_direct h ~size:(50 * mb) with
  | Some _ -> ()
  | None -> Alcotest.fail "old alloc failed");
  Alcotest.(check int) "old used" (50 * mb) h.Gh.old_used;
  Alcotest.(check bool) "old overflow rejected" true
    (Gh.alloc_old_direct h ~size:(40 * mb) = None)

let test_gen_card_table () =
  let s, h = make_gen () in
  let young = Option.get (Gh.alloc_eden h ~size:mb) in
  let old = Option.get (Gh.alloc_old_direct h ~size:mb) in
  (* young -> old: no card. *)
  Gh.record_store h ~parent:young ~child:old;
  Alcotest.(check int) "no card for young->old" 0 (Gh.dirty_count h);
  (* old -> young: card. *)
  Gh.record_store h ~parent:old ~child:young;
  Alcotest.(check bool) "card for old->young" true (Gh.card_is_dirty h old);
  (* Removing the young ref does not clean the card (card-table
     semantics)... *)
  Gh.remove_store h ~parent:old ~child:young;
  Alcotest.(check bool) "card sticky until refresh" true
    (Gh.card_is_dirty h old);
  (* ...but the next collection's refresh retires it. *)
  Gh.refresh_cards h ~extra:(Vec.create ());
  Alcotest.(check bool) "card retired by refresh" false
    (Gh.card_is_dirty h old);
  Alcotest.(check int) "no entries after refresh" 0 (Gh.dirty_count h);
  ignore s

let test_gen_invariants () =
  let _, h = make_gen () in
  ignore (Gh.alloc_eden h ~size:mb);
  ignore (Gh.alloc_old_direct h ~size:(2 * mb));
  (match Gh.check_invariants h with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* Corrupt the accounting on purpose: the check must catch it. *)
  h.Gh.old_used <- h.Gh.old_used + 1;
  Alcotest.(check bool) "corruption detected" true
    (Result.is_error (Gh.check_invariants h))

let test_gen_compact_registries () =
  let s, h = make_gen () in
  let a = Option.get (Gh.alloc_eden h ~size:mb) in
  let _b = Option.get (Gh.alloc_eden h ~size:mb) in
  Os.free s a;
  h.Gh.eden_used <- h.Gh.eden_used - mb;
  Alcotest.(check int) "registry has stale id" 2 (Vec.length h.Gh.young_ids);
  Gh.compact_registries h;
  Alcotest.(check int) "stale dropped" 1 (Vec.length h.Gh.young_ids)

let prop_gen_accounting =
  (* Random eden/old allocations and frees keep accounting exact. *)
  QCheck.Test.make ~name:"gen heap accounting stays exact" ~count:100
    QCheck.(list (pair bool (int_range 1 (2 * mb))))
    (fun ops ->
      let s = Os.create () in
      let h = Gh.create s ~heap_bytes:(64 * mb) ~young_bytes:(16 * mb) () in
      let live = ref [] in
      List.iter
        (fun (to_old, size) ->
          let res =
            if to_old then Gh.alloc_old_direct h ~size
            else Gh.alloc_eden h ~size
          in
          match res with
          | Some id -> live := (id, to_old, size) :: !live
          | None -> (
              (* Free something to make room, mimicking a collection. *)
              match !live with
              | (id, was_old, sz) :: rest ->
                  Os.free s id;
                  if was_old then h.Gh.old_used <- h.Gh.old_used - sz
                  else h.Gh.eden_used <- h.Gh.eden_used - sz;
                  live := rest
              | [] -> ()))
        ops;
      Result.is_ok (Gh.check_invariants h))

(* --- Region_heap ---------------------------------------------------- *)

let make_region () =
  let s = Os.create () in
  (* 64 MB heap in 1 MB regions. *)
  (s, Rh.create s ~heap_bytes:(64 * mb) ~target_regions:64 ())

let test_region_create () =
  let _, r = make_region () in
  Alcotest.(check int) "region size" mb r.Rh.region_size;
  Alcotest.(check int) "64 regions" 64 (Array.length r.Rh.regions);
  Alcotest.(check int) "all free" 64 (Rh.free_regions r)

let test_region_alloc_young () =
  let _, r = make_region () in
  (match Rh.alloc_young r ~size:(mb / 2) with
  | Some _ -> ()
  | None -> Alcotest.fail "young alloc failed");
  Alcotest.(check int) "one eden region" 1 (Rh.count_kind r Rh.Eden);
  (* Spills into a second region when the first fills. *)
  (match Rh.alloc_young r ~size:(3 * mb / 4) with
  | Some _ -> ()
  | None -> Alcotest.fail "spill failed");
  Alcotest.(check int) "two eden regions" 2 (Rh.count_kind r Rh.Eden);
  Alcotest.(check bool) "invariants" true (Result.is_ok (Rh.check_invariants r))

let test_region_humongous () =
  let _, r = make_region () in
  Alcotest.(check bool) "humongous rule" true (Rh.is_humongous r ~size:(mb / 2 + 1));
  Alcotest.(check bool) "small is not" false (Rh.is_humongous r ~size:(mb / 4));
  let id =
    match Rh.alloc_humongous r ~size:(3 * mb + 100) with
    | Some id -> id
    | None -> Alcotest.fail "humongous alloc failed"
  in
  Alcotest.(check int) "4 regions claimed" 4 (Rh.count_kind r Rh.Humongous);
  Alcotest.(check bool) "invariants with humongous" true
    (Result.is_ok (Rh.check_invariants r));
  Rh.release_humongous r id;
  Alcotest.(check int) "all free again" 64 (Rh.free_regions r);
  Alcotest.(check bool) "invariants after release" true
    (Result.is_ok (Rh.check_invariants r))

let test_region_humongous_contiguous () =
  let _, r = make_region () in
  (* Claim regions 0-2 and hand region 1 back, leaving a 1-region hole
     at 1: a 2-region humongous group must skip the hole. *)
  let claimed =
    List.init 3 (fun _ -> Option.get (Rh.take_free_region r Rh.Old_region))
  in
  Alcotest.(check (list int)) "lowest regions claimed" [ 0; 1; 2 ]
    (List.map (fun reg -> reg.Rh.idx) claimed);
  Rh.retire_region r r.Rh.regions.(1);
  let id = Option.get (Rh.alloc_humongous r ~size:(2 * mb)) in
  (match Os.loc r.Rh.store id with
  | Os.Region idx ->
      Alcotest.(check bool) "starts after the hole" true (idx >= 3)
  | _ -> Alcotest.fail "not region-allocated");
  Alcotest.(check bool) "invariants" true (Result.is_ok (Rh.check_invariants r))

let test_region_remset () =
  let s, r = make_region () in
  let a = Option.get (Rh.alloc_young r ~size:1000) in
  (* Force b into another region. *)
  let reg = Option.get (Rh.take_free_region r Rh.Old_region) in
  let b = Option.get (Rh.alloc_in_region r reg ~size:1000) in
  Rh.record_store r ~parent:a ~child:b;
  let rb = Rh.region_of r b in
  ignore s;
  Alcotest.(check bool) "cross-region remset entry" true
    (Hashtbl.mem rb.Rh.remset a);
  (* Same-region stores do not pollute the remset. *)
  let c = Option.get (Rh.alloc_in_region r reg ~size:1000) in
  Rh.record_store r ~parent:b ~child:c;
  Alcotest.(check bool) "no same-region entry" false
    (Hashtbl.mem rb.Rh.remset b)

let test_region_release () =
  let s, r = make_region () in
  let a = Option.get (Rh.alloc_young r ~size:1000) in
  let reg = Rh.region_of r a in
  Rh.release_region r reg;
  Alcotest.(check bool) "object freed" false (Os.is_live s a);
  Alcotest.(check int) "region free" 64 (Rh.free_regions r);
  Alcotest.(check bool) "invariants" true (Result.is_ok (Rh.check_invariants r))

let prop_region_invariants =
  QCheck.Test.make ~name:"region heap invariants under random traffic"
    ~count:60
    QCheck.(list (int_range 1 (2 * mb)))
    (fun sizes ->
      let s = Os.create () in
      let r = Rh.create s ~heap_bytes:(32 * mb) ~target_regions:32 () in
      List.iter
        (fun size ->
          if Rh.is_humongous r ~size then begin
            match Rh.alloc_humongous r ~size with
            | Some id when size mod 3 = 0 -> Rh.release_humongous r id
            | Some _ | None -> ()
          end
          else begin
            match Rh.alloc_young r ~size with
            | Some _ -> ()
            | None ->
                (* Release every eden region, as a young collection with
                   no survivors would. *)
                List.iter (fun reg -> Rh.release_region r reg) (Rh.eden_regions r)
          end)
        sizes;
      Result.is_ok (Rh.check_invariants r))

(* The occupancy totals are kept incrementally; after every step of a
   random operation sequence they must equal a fold over the region
   table, and [check_invariants] must agree.  The heap is small (16
   regions of 1 MB) so sequences exhaust it, hit the humongous and
   full-region paths, and recycle regions many times. *)
let prop_region_occupancy =
  let kinds = [| Rh.Eden; Rh.Survivor; Rh.Old_region; Rh.Humongous |] in
  QCheck.Test.make ~name:"region occupancy totals equal the fold" ~count:40
    QCheck.(
      list_of_size (Gen.int_range 500 800)
        (pair (int_bound 8) (int_bound (1 lsl 30))))
    (fun ops ->
      let s = Os.create () in
      let r = Rh.create s ~heap_bytes:(16 * mb) ~target_regions:16 () in
      let fold keep =
        Array.fold_left
          (fun acc reg -> if keep reg.Rh.kind then acc + reg.Rh.used else acc)
          0 r.Rh.regions
      in
      (* Humongous objects, newest first, and humongous regions claimed
         bare through [take_free_region] (no group, no objects). *)
      let humongous = ref [] and bare = ref [] in
      let small () =
        List.filter
          (fun reg ->
            match reg.Rh.kind with
            | Rh.Eden | Rh.Survivor | Rh.Old_region -> true
            | Rh.Free | Rh.Humongous -> false)
          (Array.to_list r.Rh.regions)
      in
      let resident reg id = Os.is_live s id && Os.in_region s id reg.Rh.idx in
      let pick l n = List.nth l (n mod List.length l) in
      let with_pick l n f = if l <> [] then f (pick l n) in
      let release f reg =
        bare := List.filter (fun b -> b != reg) !bare;
        f r reg
      in
      let step (op, n) =
        match op with
        | 0 -> ignore (Rh.alloc_young r ~size:(1 + (n mod (mb / 2))))
        | 1 -> (
            let size = (mb / 2) + 1 + (n mod (3 * mb)) in
            match Rh.alloc_humongous r ~size with
            | Some id -> humongous := id :: !humongous
            | None -> ())
        | 2 -> (
            let kind = kinds.(n mod Array.length kinds) in
            match Rh.take_free_region r kind with
            | Some reg when kind = Rh.Humongous -> bare := reg :: !bare
            | Some _ | None -> ())
        | 3 ->
            with_pick (small ()) n (fun reg ->
                ignore (Rh.alloc_in_region r reg ~size:(1 + (n mod 65536))))
        | 4 ->
            (* Evacuate one object between two regions, as the collectors
               do: [add_used] moves its bytes, the relocation kernel its
               location. *)
            let l = small () in
            with_pick l n (fun src ->
                let dst = pick l (n / 7) in
                let fits id = dst.Rh.used + Os.size s id <= r.Rh.region_size in
                match
                  List.find_opt
                    (fun id -> resident src id && fits id)
                    (Vec.to_list src.Rh.objects)
                with
                | Some id when dst != src ->
                    let size = Os.size s id in
                    Rh.add_used r src (-size);
                    Rh.add_used r dst size;
                    Vec.push dst.Rh.objects id;
                    Os.plan_clear s;
                    Os.plan_push_region s id ~region:dst.Rh.idx
                      ~age:(Os.age s id);
                    ignore (Os.finish_relocate s)
                | Some _ | None -> ())
        | 5 -> with_pick (small () @ !bare) n (release Rh.release_region)
        | 6 ->
            (* Retiring keeps the objects, so only a region every object
               has been evacuated out of may be retired. *)
            let empty reg = not (Vec.exists (resident reg) reg.Rh.objects) in
            with_pick
              (List.filter empty (small ()) @ !bare)
              n (release Rh.retire_region)
        | _ -> (
            match !humongous with
            | [] -> ()
            | id :: rest ->
                humongous := rest;
                Rh.release_humongous r id)
      in
      List.for_all
        (fun (op, n) ->
          step (op, n);
          Rh.used_young r
          = fold (function Rh.Eden | Rh.Survivor -> true | _ -> false)
          && Rh.used_old_hum r
             = fold (function Rh.Old_region | Rh.Humongous -> true | _ -> false)
          && Rh.heap_used r = fold (fun _ -> true)
          &&
          match Rh.check_invariants r with
          | Ok () -> true
          | Error e -> QCheck.Test.fail_reportf "step (%d, %d): %s" op n e)
        ops)

let () =
  Alcotest.run "heap"
    [
      ( "obj_store",
        [
          Alcotest.test_case "alloc/free" `Quick test_store_alloc_free;
          Alcotest.test_case "slot recycling" `Quick test_store_recycles_slots;
          Alcotest.test_case "double free" `Quick test_store_double_free;
          Alcotest.test_case "stale get" `Quick test_store_stale_get;
          Alcotest.test_case "refs" `Quick test_store_refs;
          Alcotest.test_case "live ids" `Quick test_store_live_ids;
          QCheck_alcotest.to_alcotest prop_store_model;
          QCheck_alcotest.to_alcotest prop_finish_relocate;
          Alcotest.test_case "plan age range" `Quick test_plan_age_range;
          QCheck_alcotest.to_alcotest prop_forwarding_model;
          Alcotest.test_case "host words per object" `Quick test_store_census;
        ] );
      ( "gen_heap",
        [
          Alcotest.test_case "layout" `Quick test_gen_layout;
          Alcotest.test_case "bad config" `Quick test_gen_bad_config;
          Alcotest.test_case "eden alloc" `Quick test_gen_alloc_eden;
          Alcotest.test_case "old direct alloc" `Quick test_gen_alloc_old_direct;
          Alcotest.test_case "card table" `Quick test_gen_card_table;
          Alcotest.test_case "invariants" `Quick test_gen_invariants;
          Alcotest.test_case "registry compaction" `Quick test_gen_compact_registries;
          QCheck_alcotest.to_alcotest prop_gen_accounting;
        ] );
      ( "region_heap",
        [
          Alcotest.test_case "create" `Quick test_region_create;
          Alcotest.test_case "young alloc" `Quick test_region_alloc_young;
          Alcotest.test_case "humongous" `Quick test_region_humongous;
          Alcotest.test_case "humongous contiguity" `Quick test_region_humongous_contiguous;
          Alcotest.test_case "remset" `Quick test_region_remset;
          Alcotest.test_case "release" `Quick test_region_release;
          QCheck_alcotest.to_alcotest prop_region_invariants;
          QCheck_alcotest.to_alcotest prop_region_occupancy;
        ] );
    ]
