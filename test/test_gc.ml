(* Collector correctness tests.

   Each collector runs against small heaps with a driver built on the VM:
   rooted objects must survive any number of collections, garbage must be
   reclaimed, space accounting must stay exact, and each collector's
   specific machinery (CMS cycles and concurrent-mode failures, G1
   marking, mixed collections and humongous objects) must engage. *)

module Vm = Gcperf_runtime.Vm
module Machine = Gcperf_machine.Machine
module Gc_config = Gcperf_gc.Gc_config
module Gc_ctx = Gcperf_gc.Gc_ctx
module Gc_event = Gcperf_sim.Gc_event
module Os = Gcperf_heap.Obj_store

let mb = 1024 * 1024

let machine = Machine.paper_server ()

let small_config kind =
  Gc_config.default kind ~heap_bytes:(64 * mb) ~young_bytes:(16 * mb)

let all_kind_cases f =
  List.map
    (fun kind ->
      Alcotest.test_case (Gc_config.kind_to_string kind) `Quick (fun () ->
          f kind))
    Gc_config.all_kinds

(* Allocate [n] rooted objects of [size] bytes on one thread. *)
let alloc_rooted vm th n size =
  List.init n (fun _ -> Vm.alloc vm th ~size ~lifetime:`Permanent)

let check_invariants vm =
  match Vm.check_invariants vm with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("invariant violation: " ^ e)

(* --- rooted objects survive collections ----------------------------- *)

let test_rooted_survive kind =
  let vm = Vm.create machine (small_config kind) ~seed:1 in
  let th = Vm.spawn_thread vm in
  let rooted = alloc_rooted vm th 20 (512 * 1024) in
  (* Push enough garbage through to force many collections. *)
  for _ = 1 to 400 do
    ignore (Vm.alloc vm th ~size:(512 * 1024) ~lifetime:(`Bytes (256 * 1024)));
    Vm.step vm ~dt_us:1000.0 (fun _ -> ())
  done;
  Alcotest.(check bool) "collections happened" true
    (Gc_event.count (Vm.events vm) > 0);
  List.iter
    (fun id ->
      Alcotest.(check bool) "rooted object alive" true (Vm.is_live vm id))
    rooted;
  check_invariants vm

(* --- reachability through references -------------------------------- *)

let test_reachable_via_ref_survives kind =
  let vm = Vm.create machine (small_config kind) ~seed:2 in
  let th = Vm.spawn_thread vm in
  let parent = Vm.alloc vm th ~size:(256 * 1024) ~lifetime:`Permanent in
  let child = Vm.alloc vm th ~size:(256 * 1024) ~lifetime:`Permanent in
  Vm.add_ref vm ~parent ~child;
  (* Drop the child's root: it stays reachable through the parent. *)
  Vm.drop_root vm th child;
  for _ = 1 to 300 do
    ignore (Vm.alloc vm th ~size:(512 * 1024) ~lifetime:(`Bytes (256 * 1024)));
    Vm.step vm ~dt_us:1000.0 (fun _ -> ())
  done;
  Alcotest.(check bool) "child kept by parent ref" true (Vm.is_live vm child);
  (* Sever the edge: the child must eventually be collected. *)
  Vm.remove_ref vm ~parent ~child;
  Vm.system_gc vm;
  Alcotest.(check bool) "child collected after severing" false
    (Vm.is_live vm child);
  Alcotest.(check bool) "parent still alive" true (Vm.is_live vm parent);
  check_invariants vm

(* --- garbage is reclaimed -------------------------------------------- *)

let test_garbage_reclaimed kind =
  let vm = Vm.create machine (small_config kind) ~seed:3 in
  let th = Vm.spawn_thread vm in
  (* 8x the heap in immediately dropped objects: only reclamation lets
     this terminate without OOM. *)
  for _ = 1 to 1024 do
    let id = Vm.alloc vm th ~size:(512 * 1024) ~lifetime:`Permanent in
    Vm.drop_root vm th id;
    Vm.step vm ~dt_us:200.0 (fun _ -> ())
  done;
  let used = (Vm.collector vm).Gcperf_gc.Collector.heap_used () in
  Alcotest.(check bool) "heap not exhausted by garbage" true
    (used < 64 * mb);
  check_invariants vm

(* --- System.gc ------------------------------------------------------- *)

let test_system_gc kind =
  let vm = Vm.create machine (small_config kind) ~seed:4 in
  let th = Vm.spawn_thread vm in
  let keep = alloc_rooted vm th 4 (256 * 1024) in
  let junk = Vm.alloc vm th ~size:(4 * mb) ~lifetime:`Permanent in
  Vm.drop_root vm th junk;
  Vm.system_gc vm;
  let events = Gc_event.events (Vm.events vm) in
  Alcotest.(check bool) "a full pause was recorded" true
    (List.exists (fun e -> Gc_event.is_full e.Gc_event.kind) events);
  Alcotest.(check bool) "junk reclaimed" false (Vm.is_live vm junk);
  List.iter
    (fun id -> Alcotest.(check bool) "kept" true (Vm.is_live vm id))
    keep;
  check_invariants vm

(* --- pause log sanity ------------------------------------------------ *)

let test_pause_log_sane kind =
  let vm = Vm.create machine (small_config kind) ~seed:5 in
  let th = Vm.spawn_thread vm in
  for _ = 1 to 300 do
    ignore (Vm.alloc vm th ~size:(512 * 1024) ~lifetime:(`Bytes (128 * 1024)));
    Vm.step vm ~dt_us:500.0 (fun _ -> ())
  done;
  let events = Gc_event.events (Vm.events vm) in
  Alcotest.(check bool) "has events" true (events <> []);
  let rec check_sorted prev = function
    | [] -> ()
    | e :: tl ->
        Alcotest.(check bool) "positive duration" true
          (e.Gc_event.duration_us > 0.0);
        Alcotest.(check bool) "chronological" true
          (e.Gc_event.start_us >= prev -. 1e-9);
        check_sorted (e.Gc_event.start_us +. e.Gc_event.duration_us) tl
  in
  check_sorted 0.0 events

(* --- promotion ------------------------------------------------------- *)

let test_promotion kind =
  let vm = Vm.create machine (small_config kind) ~seed:6 in
  let th = Vm.spawn_thread vm in
  let pinned = Vm.alloc vm th ~size:(256 * 1024) ~lifetime:`Permanent in
  for _ = 1 to 600 do
    ignore (Vm.alloc vm th ~size:(512 * 1024) ~lifetime:(`Bytes (128 * 1024)));
    Vm.step vm ~dt_us:500.0 (fun _ -> ())
  done;
  let store = (Vm.collector vm).Gcperf_gc.Collector.store in
  let is_old =
    match Os.loc store pinned with
    | Os.Old -> true
    | Os.Region r -> (
        match (Vm.collector vm).Gcperf_gc.Collector.kind with
        | Gc_config.G1 -> r >= 0
        | _ -> false)
    | Os.Eden | Os.Survivor | Os.Nowhere -> false
  in
  Alcotest.(check bool) "long-lived object left eden" true
    (is_old || Os.age store pinned > 0)

(* --- out of memory --------------------------------------------------- *)

let test_oom kind =
  let vm = Vm.create machine (small_config kind) ~seed:7 in
  let th = Vm.spawn_thread vm in
  let blew_up = ref false in
  (try
     (* 80 MB of permanently rooted data cannot fit a 64 MB heap. *)
     for _ = 1 to 160 do
       ignore (Vm.alloc vm th ~size:(512 * 1024) ~lifetime:`Permanent)
     done
   with Gc_ctx.Out_of_memory _ -> blew_up := true);
  Alcotest.(check bool) "raised Out_of_memory" true !blew_up

(* --- write barrier keeps young children of old parents --------------- *)

let test_write_barrier kind =
  let vm = Vm.create machine (small_config kind) ~seed:8 in
  let th = Vm.spawn_thread vm in
  (* Build an old parent: allocate it, then force collections so it gets
     promoted. *)
  let parent = Vm.alloc vm th ~size:(256 * 1024) ~lifetime:`Permanent in
  for _ = 1 to 300 do
    ignore (Vm.alloc vm th ~size:(512 * 1024) ~lifetime:(`Bytes (64 * 1024)));
    Vm.step vm ~dt_us:500.0 (fun _ -> ())
  done;
  (* Fresh young child, kept alive only through the old parent. *)
  let child = Vm.alloc vm th ~size:(64 * 1024) ~lifetime:`Permanent in
  Vm.add_ref vm ~parent ~child;
  Vm.drop_root vm th child;
  for _ = 1 to 200 do
    ignore (Vm.alloc vm th ~size:(512 * 1024) ~lifetime:(`Bytes (64 * 1024)));
    Vm.step vm ~dt_us:500.0 (fun _ -> ())
  done;
  Alcotest.(check bool) "child survived via card/remset" true
    (Vm.is_live vm child)

(* --- collector-specific machinery ------------------------------------ *)

(* Collector facts are read from the VM's own gc.log: how many pauses of
   [kind] it recorded, optionally only those with the given cause. *)
let count_pauses ?reason vm kind =
  List.length
    (List.filter
       (fun e ->
         e.Gc_event.kind = kind
         && Option.fold ~none:true
              ~some:(String.equal e.Gc_event.reason)
              reason)
       (Gc_event.events (Vm.events vm)))

let test_cms_cycle () =
  let vm = Vm.create machine (small_config Gc_config.Cms) ~seed:9 in
  let th = Vm.spawn_thread vm in
  (* Fill the old generation past the initiating occupancy with live
     data, then keep allocating so ticks happen. *)
  let hoard = ref [] in
  for _ = 1 to 100 do
    hoard := Vm.alloc vm th ~size:(512 * 1024) ~lifetime:`Permanent :: !hoard
  done;
  for _ = 1 to 400 do
    ignore (Vm.alloc vm th ~size:(256 * 1024) ~lifetime:(`Bytes (64 * 1024)));
    Vm.step vm ~dt_us:2000.0 (fun _ -> ())
  done;
  Alcotest.(check bool) "a concurrent cycle started" true
    (count_pauses vm Gc_event.Initial_mark >= 1)

let test_cms_reclaims_concurrently () =
  let vm = Vm.create machine (small_config Gc_config.Cms) ~seed:10 in
  let th = Vm.spawn_thread vm in
  let hoard = ref [] in
  for _ = 1 to 100 do
    hoard := Vm.alloc vm th ~size:(512 * 1024) ~lifetime:`Permanent :: !hoard
  done;
  (* Push the hoard into the old generation. *)
  for _ = 1 to 100 do
    ignore (Vm.alloc vm th ~size:(256 * 1024) ~lifetime:(`Bytes (64 * 1024)));
    Vm.step vm ~dt_us:2000.0 (fun _ -> ())
  done;
  (* Make the hoard garbage, then let the concurrent cycle reclaim it. *)
  List.iter (fun id -> Vm.drop_root vm th id) !hoard;
  let before = (Vm.collector vm).Gcperf_gc.Collector.old_used () in
  for _ = 1 to 600 do
    ignore (Vm.alloc vm th ~size:(256 * 1024) ~lifetime:(`Bytes (64 * 1024)));
    Vm.step vm ~dt_us:2000.0 (fun _ -> ())
  done;
  let after = (Vm.collector vm).Gcperf_gc.Collector.old_used () in
  Alcotest.(check bool) "old generation shrank" true (after < before)

let test_cms_concurrent_mode_failure () =
  let vm = Vm.create machine (small_config Gc_config.Cms) ~seed:11 in
  let th = Vm.spawn_thread vm in
  (* Saturate the old generation with live data, then promote hard: the
     cycle cannot keep up and CMS must fall back to a serial full GC. *)
  let n = 44 * mb / (512 * 1024) in
  for _ = 1 to n do
    ignore (Vm.alloc vm th ~size:(512 * 1024) ~lifetime:`Permanent)
  done;
  (try
     for _ = 1 to 600 do
       ignore (Vm.alloc vm th ~size:(512 * 1024) ~lifetime:(`Bytes (8 * mb)));
       Vm.step vm ~dt_us:200.0 (fun _ -> ())
     done
   with Gc_ctx.Out_of_memory _ -> ());
  Alcotest.(check bool) "fell back to a full collection" true
    (count_pauses ~reason:"concurrent mode failure" vm Gc_event.Full >= 1)

(* Failure accounting: with a tiny old generation every promotion burst
   hits [Gen_algo.Promotion_failure], and the fallback must be visible
   in the emitted pause causes — this is what the paper's pause-cause
   tables key off. *)
let test_cms_failure_accounting () =
  let config =
    Gc_config.default Gc_config.Cms ~heap_bytes:(24 * mb)
      ~young_bytes:(16 * mb)
  in
  let vm = Vm.create machine config ~seed:21 in
  let th = Vm.spawn_thread vm in
  (* ~6 MB of the 8 MB old generation stays live forever. *)
  for _ = 1 to 12 do
    ignore (Vm.alloc vm th ~size:(512 * 1024) ~lifetime:`Permanent)
  done;
  Vm.system_gc vm;
  (* Medium-lived clusters survive their first young collection and ask
     for promotion the old generation cannot grant. *)
  (try
     for _ = 1 to 400 do
       ignore (Vm.alloc vm th ~size:(256 * 1024) ~lifetime:(`Bytes (6 * mb)));
       Vm.step vm ~dt_us:200.0 (fun _ -> ())
     done
   with Gc_ctx.Out_of_memory _ -> ());
  Alcotest.(check bool) "concurrent mode failures counted" true
    (count_pauses ~reason:"concurrent mode failure" vm Gc_event.Full >= 1)

let test_g1_evacuation_failure_accounting () =
  let config =
    Gc_config.default Gc_config.G1 ~heap_bytes:(32 * mb) ~young_bytes:(8 * mb)
  in
  let vm = Vm.create machine config ~seed:22 in
  let th = Vm.spawn_thread vm in
  (* Pin most regions with permanent data so surviving + promoted bytes
     of a young collection cannot find free regions to evacuate into. *)
  (try
     for _ = 1 to 96 do
       ignore (Vm.alloc vm th ~size:(256 * 1024) ~lifetime:`Permanent)
     done;
     for _ = 1 to 600 do
       ignore (Vm.alloc vm th ~size:(256 * 1024) ~lifetime:(`Bytes (4 * mb)));
       Vm.step vm ~dt_us:200.0 (fun _ -> ())
     done
   with Gc_ctx.Out_of_memory _ -> ());
  Alcotest.(check bool) "evacuation failures counted" true
    (count_pauses ~reason:"evacuation failure" vm Gc_event.Full >= 1)

let test_g1_humongous () =
  let vm = Vm.create machine (small_config Gc_config.G1) ~seed:12 in
  let th = Vm.spawn_thread vm in
  (* Region size for a 64 MB heap is 1 MB; > 512 KB is humongous. *)
  let h = Vm.alloc vm th ~size:(3 * mb) ~lifetime:`Permanent in
  Alcotest.(check bool) "humongous allocated" true (Vm.is_live vm h);
  for _ = 1 to 300 do
    ignore (Vm.alloc vm th ~size:(128 * 1024) ~lifetime:(`Bytes (64 * 1024)));
    Vm.step vm ~dt_us:500.0 (fun _ -> ())
  done;
  Alcotest.(check bool) "humongous survives collections" true (Vm.is_live vm h);
  (* Dropped humongous objects are reclaimed (cleanup or full GC). *)
  Vm.drop_root vm th h;
  Vm.system_gc vm;
  Alcotest.(check bool) "humongous reclaimed" false (Vm.is_live vm h);
  check_invariants vm

let test_g1_marking_and_mixed () =
  let vm = Vm.create machine (small_config Gc_config.G1) ~seed:13 in
  let th = Vm.spawn_thread vm in
  (* Old data with garbage inside: build, drop half, keep allocating. *)
  let hoard = ref [] in
  for _ = 1 to 120 do
    hoard := Vm.alloc vm th ~size:(384 * 1024) ~lifetime:`Permanent :: !hoard
  done;
  (* Keep two thirds live (above the 45% IHOP) with garbage mixed in. *)
  List.iteri
    (fun i id -> if i mod 3 = 0 then Vm.drop_root vm th id)
    !hoard;
  for _ = 1 to 800 do
    ignore (Vm.alloc vm th ~size:(256 * 1024) ~lifetime:(`Bytes (64 * 1024)));
    Vm.step vm ~dt_us:2000.0 (fun _ -> ())
  done;
  Alcotest.(check bool) "marking cycles ran" true
    (count_pauses vm Gc_event.Initial_mark >= 1);
  let events = Gc_event.events (Vm.events vm) in
  Alcotest.(check bool) "remark pauses recorded" true
    (List.exists (fun e -> e.Gc_event.kind = Gc_event.Remark) events);
  check_invariants vm

let test_g1_young_collections_bounded () =
  (* With a fixed young size, eden collections trigger at the target. *)
  let vm = Vm.create machine (small_config Gc_config.G1) ~seed:14 in
  let th = Vm.spawn_thread vm in
  for _ = 1 to 200 do
    ignore (Vm.alloc vm th ~size:(256 * 1024) ~lifetime:(`Bytes (64 * 1024)));
    Vm.step vm ~dt_us:500.0 (fun _ -> ())
  done;
  Alcotest.(check bool) "young collections happened" true
    (count_pauses vm Gc_event.Young >= 2)

(* --- hot-path data structures (remembered set, epoch marks) ----------- *)

module Gh = Gcperf_heap.Gen_heap
module Gen_algo = Gcperf_gc.Gen_algo
module Vec = Gcperf_util.Int_vec

(* A bare generational heap driven directly through Gen_algo, with an
   explicit root table standing in for the runtime. *)
let make_bare_heap () =
  let clock = Gcperf_sim.Clock.create () in
  let events = Gc_event.create () in
  let ctx = Gc_ctx.create machine clock events in
  let store = Os.create () in
  let heap = Gh.create store ~heap_bytes:(32 * mb) ~young_bytes:(8 * mb) () in
  let roots : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  ctx.Gc_ctx.iter_roots <- (fun f -> Hashtbl.iter (fun id () -> f id) roots);
  ctx.Gc_ctx.mutator_threads <- 1;
  (ctx, store, heap, roots)

let bare_params heap =
  {
    Gen_algo.workers = 1;
    promote_rate = 1000.0;
    usable_old_free = (fun () -> Gh.old_free heap);
  }

let has_live_young_ref store id =
  let found = ref false in
  Os.iter_refs store id (fun r ->
      if Os.is_live store r && Os.is_young store r then found := true);
  !found

(* Soundness — must hold after EVERY mutation and collection: a live old
   object with a young target is card-marked (a missed card would let a
   young collection free reachable data). *)
let remset_sound store heap =
  let ok = ref true in
  Os.iter_live store (fun id ->
      if
        Os.is_old store id
        && has_live_young_ref store id
        && not (Gh.card_is_dirty heap id)
      then ok := false);
  !ok

(* Exactness — holds right after a collection's refresh: the tracked set
   is precisely {live old objects with >= 1 live young ref}.  Between
   collections entries may be sticky (card-table semantics), so only
   soundness is required there. *)
let remset_exact store heap =
  let ok = ref true in
  Os.iter_live store (fun id ->
      if
        Os.is_old store id
        && Gh.card_is_dirty heap id <> has_live_young_ref store id
      then ok := false);
  !ok && Gh.dirty_count heap <= Os.live_count store

let prop_remset_invariant =
  (* >= 1000 randomized alloc / write_ref / remove_ref / kill / collection
     steps per run.  The driver removes a victim's edges before unrooting
     it, so objects die reference-free and ids never dangle — making the
     shadow-free exactness check above well-defined. *)
  QCheck.Test.make ~name:"remembered set invariant under random traffic"
    ~count:3
    QCheck.(list_of_size (Gen.int_range 1000 1300) (int_range 0 1_000_000))
    (fun ops ->
      let ctx, store, heap, roots = make_bare_heap () in
      let params = bare_params heap in
      let rooted = Vec.create () in
      let edges = ref [] in
      let failures = ref [] in
      let require what cond = if not cond then failures := what :: !failures in
      let collect_young () =
        (try
           ignore
             (Gen_algo.collect_young ctx heap ~params ~collector:"prop"
                ~reason:"prop")
         with Gen_algo.Promotion_failure ->
           ignore
             (Gen_algo.collect_full ctx heap ~workers:1 ~collector:"prop"
                ~reason:"prop"));
        require "exact after young gc" (remset_exact store heap)
      in
      let collect_full () =
        ignore
          (Gen_algo.collect_full ctx heap ~workers:1 ~collector:"prop"
             ~reason:"prop");
        require "exact after full gc" (remset_exact store heap)
      in
      let root id =
        Hashtbl.replace roots id ();
        Vec.push rooted id
      in
      let step op =
        match op mod 8 with
        | 0 | 1 | 2 ->
            (* Rooted eden allocation; collect on failure. *)
            let size = 1024 * (1 + op mod 48) in
            (match Gh.alloc_eden heap ~size with
            | Some id -> root id
            | None -> (
                collect_young ();
                match Gh.alloc_eden heap ~size with
                | Some id -> root id
                | None -> ()))
        | 3 ->
            (* Rooted old allocation (e.g. a humongous cluster). *)
            let size = 1024 * (1 + op mod 64) in
            (match Gh.alloc_old_direct heap ~size with
            | Some id -> root id
            | None -> (
                collect_full ();
                match Gh.alloc_old_direct heap ~size with
                | Some id -> root id
                | None -> ()))
        | 4 ->
            (* Store a reference between two live rooted objects. *)
            let n = Vec.length rooted in
            if n >= 2 then begin
              let p = Vec.get rooted (op / 8 mod n)
              and c = Vec.get rooted (op / 64 mod n) in
              Gh.record_store heap ~parent:p ~child:c;
              edges := (p, c) :: !edges
            end
        | 5 ->
            (* Overwrite: remove one previously stored reference. *)
            let len = List.length !edges in
            if len > 0 then begin
              let idx = op / 8 mod len in
              let p, c = List.nth !edges idx in
              Gh.remove_store heap ~parent:p ~child:c;
              edges := List.filteri (fun i _ -> i <> idx) !edges
            end
        | 6 ->
            (* Kill a rooted object: sever its edges, then unroot it. *)
            let n = Vec.length rooted in
            if n > 4 then begin
              let idx = op / 8 mod n in
              let id = Vec.get rooted idx in
              List.iter
                (fun (p, c) ->
                  if p = id || c = id then Gh.remove_store heap ~parent:p ~child:c)
                !edges;
              edges := List.filter (fun (p, c) -> p <> id && c <> id) !edges;
              Hashtbl.remove roots id;
              ignore (Vec.swap_remove rooted idx)
            end
        | _ -> if op mod 40 = 7 then collect_full () else collect_young ()
      in
      List.iter
        (fun op ->
          step op;
          require "sound after step" (remset_sound store heap))
        ops;
      collect_full ();
      (match !failures with
      | [] -> ()
      | w :: _ -> QCheck.Test.fail_reportf "remset invariant broken: %s" w);
      true)

let naive_reachable ctx store =
  let visited = Hashtbl.create 64 in
  let rec go id =
    if Os.is_live store id && not (Hashtbl.mem visited id) then begin
      Hashtbl.add visited id ();
      Os.iter_refs store id go
    end
  in
  ctx.Gc_ctx.iter_roots go;
  List.sort compare (Hashtbl.fold (fun id () acc -> id :: acc) visited [])

let test_epoch_marking_equivalence () =
  let ctx, store, heap, roots = make_bare_heap () in
  (* A little object graph spanning both generations, with shared
     structure, a cycle, and unreachable clutter. *)
  let young =
    Array.init 24 (fun _ -> Option.get (Gh.alloc_eden heap ~size:4096))
  in
  let old =
    Array.init 12 (fun _ -> Option.get (Gh.alloc_old_direct heap ~size:8192))
  in
  Array.iteri
    (fun i id ->
      if i mod 3 = 0 then Hashtbl.replace roots id ();
      Gh.record_store heap ~parent:id ~child:young.((i * 7 + 3) mod 24))
    young;
  Array.iteri
    (fun i id ->
      if i mod 4 = 0 then Hashtbl.replace roots id ();
      Gh.record_store heap ~parent:id ~child:young.((i * 5 + 1) mod 24);
      Gh.record_store heap ~parent:id ~child:old.((i + 1) mod 12))
    old;
  Gh.record_store heap ~parent:young.(3) ~child:young.(3) (* self cycle *);
  let trace_ids () =
    Gc_ctx.trace_all ctx store ~marked:heap.Gh.mark_list
      ~stack:heap.Gh.trace_stack;
    List.sort compare (Vec.to_list heap.Gh.mark_list)
  in
  let expected = naive_reachable ctx store in
  Alcotest.(check (list int)) "trace matches naive reachability" expected
    (trace_ids ());
  (* A second trace must not be polluted by the first one's marks: epoch
     staleness replaces the clearing pass. *)
  Alcotest.(check (list int)) "repeat trace identical" expected (trace_ids ());
  (* Mark stamps answer is_marked for exactly the traced set. *)
  ignore (trace_ids ());
  Os.iter_live store (fun id ->
      Alcotest.(check bool)
        (Printf.sprintf "is_marked agrees for %d" id)
        (List.mem id expected)
        (Os.is_marked store id));
  (* Fresh allocations are never marked, even on recycled slots. *)
  let fresh = Option.get (Gh.alloc_eden heap ~size:1024) in
  Alcotest.(check bool) "fresh object unmarked" false
    (Os.is_marked store fresh);
  (* After a collection reshuffles locations, equivalence still holds. *)
  ignore
    (Gen_algo.collect_young ctx heap ~params:(bare_params heap)
       ~collector:"epoch" ~reason:"test");
  Alcotest.(check (list int)) "trace after collection matches naive"
    (naive_reachable ctx store) (trace_ids ())

(* --- random programs preserve correctness (property) ----------------- *)

let prop_random_program kind =
  let name =
    Printf.sprintf "random program safe under %s" (Gc_config.kind_to_string kind)
  in
  QCheck.Test.make ~name ~count:15
    QCheck.(
      list_of_size (Gen.int_range 20 120)
        (triple (int_range 1 (mb / 2)) (int_range 0 3) bool))
    (fun program ->
      let vm = Vm.create machine (small_config kind) ~seed:99 in
      let th = Vm.spawn_thread vm in
      let rooted = ref [] in
      (try
         List.iter
           (fun (size, links, keep) ->
             let id =
               Vm.alloc vm th ~size
                 ~lifetime:(if keep then `Permanent else `Bytes (4 * size))
             in
             if keep then rooted := id :: !rooted;
             (* Link to previously rooted objects. *)
             let rec link n l =
               match (n, l) with
               | 0, _ | _, [] -> ()
               | n, p :: tl ->
                   if Vm.is_live vm p then Vm.add_ref vm ~parent:p ~child:id;
                   link (n - 1) tl
             in
             link links !rooted;
             Vm.step vm ~dt_us:300.0 (fun _ -> ());
             (* Cap live data so the program never legitimately OOMs. *)
             if List.length !rooted > 60 then begin
               match List.rev !rooted with
               | oldest :: _ ->
                   Vm.drop_root vm th oldest;
                   rooted := List.filter (fun x -> x <> oldest) !rooted
               | [] -> ()
             end)
           program
       with Gc_ctx.Out_of_memory _ -> ());
      List.for_all (fun id -> Vm.is_live vm id) !rooted
      && Result.is_ok (Vm.check_invariants vm))

(* G1's full collection rebuilds the remembered sets: right after it,
   each region's remset holds exactly the live objects in other regions
   with a child in that region (the region counterpart of
   [remset_exact]), except that a humongous region's set is empty —
   no collection set holds one, so nothing would read it.  Young
   collections, old and humongous objects and edges from objects that
   die in the full collection all feed the remsets before it runs. *)
let test_g1_remsets_exact_after_full_gc () =
  let module Rh = Gcperf_heap.Region_heap in
  let module Collector = Gcperf_gc.Collector in
  let events = Gc_event.create () in
  let ctx = Gc_ctx.create machine (Gcperf_sim.Clock.create ()) events in
  let config = small_config Gc_config.G1 in
  let store = Os.create () in
  let rheap = Rh.create store ~heap_bytes:config.Gc_config.heap_bytes () in
  let c = Gcperf_gc.Gc_g1.create_in ctx config rheap in
  let roots : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  ctx.Gc_ctx.iter_roots <- (fun f -> Hashtbl.iter (fun id () -> f id) roots);
  let rng = Random.State.make [| 17 |] in
  let n = 3000 in
  let objs = Array.make n (-1) in
  for i = 0 to n - 1 do
    let id =
      if i mod 97 = 0 then c.Collector.alloc ~size:(700 * 1024)
      else if i mod 5 = 0 then c.Collector.alloc_old ~size:(8 * 1024)
      else c.Collector.alloc ~size:(16 * 1024)
    in
    objs.(i) <- id;
    if i mod 3 = 0 then Hashtbl.replace roots id ();
    for _ = 1 to 2 do
      let child = objs.(Random.State.int rng (i + 1)) in
      if Os.is_live store child then c.Collector.write_ref ~parent:id ~child
    done;
    (* Unroot some objects now and then so the young collections and the
       full collection below find dead sources. *)
    if i mod 7 = 0 then Hashtbl.remove roots objs.(i / 2)
  done;
  Alcotest.(check bool) "young collections ran first" true
    (Gc_event.count events > 1);
  c.Collector.system_gc ();
  let expected = Array.map (fun _ -> ref []) rheap.Rh.regions in
  Os.iter_live store (fun id ->
      let rp = Os.region_index store id in
      let into = Hashtbl.create 4 in
      Os.iter_refs store id (fun child ->
          let rc = Os.region_index store child in
          if rp >= 0 && rc >= 0 && rc <> rp then Hashtbl.replace into rc ());
      Hashtbl.iter (fun rc () -> expected.(rc) := id :: !(expected.(rc))) into);
  let into_humongous = ref 0 in
  Array.iter
    (fun r ->
      let actual = ref [] in
      Gcperf_util.Int_table.iter (fun id -> actual := id :: !actual) r.Rh.remset;
      let expected =
        match r.Rh.kind with
        | Rh.Humongous ->
            into_humongous :=
              !into_humongous + List.length !(expected.(r.Rh.idx));
            []
        | Rh.Free | Rh.Eden | Rh.Survivor | Rh.Old_region ->
            !(expected.(r.Rh.idx))
      in
      Alcotest.(check (list int))
        (Printf.sprintf "region %d remset" r.Rh.idx)
        (List.sort compare expected)
        (List.sort compare !actual))
    rheap.Rh.regions;
  Alcotest.(check bool) "live edges into humongous regions" true
    (!into_humongous > 0);
  match c.Collector.check_invariants () with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("invariant violation: " ^ e)

let () =
  Alcotest.run "gc"
    [
      ("rooted objects survive", all_kind_cases test_rooted_survive);
      ("reachability via refs", all_kind_cases test_reachable_via_ref_survives);
      ("garbage reclaimed", all_kind_cases test_garbage_reclaimed);
      ("system gc", all_kind_cases test_system_gc);
      ("pause log", all_kind_cases test_pause_log_sane);
      ("promotion", all_kind_cases test_promotion);
      ("out of memory", all_kind_cases test_oom);
      ("write barrier", all_kind_cases test_write_barrier);
      ( "cms",
        [
          Alcotest.test_case "concurrent cycle" `Quick test_cms_cycle;
          Alcotest.test_case "concurrent reclamation" `Quick
            test_cms_reclaims_concurrently;
          Alcotest.test_case "concurrent mode failure" `Quick
            test_cms_concurrent_mode_failure;
          Alcotest.test_case "failure accounting" `Quick
            test_cms_failure_accounting;
        ] );
      ( "g1",
        [
          Alcotest.test_case "humongous objects" `Quick test_g1_humongous;
          Alcotest.test_case "marking and mixed" `Quick test_g1_marking_and_mixed;
          Alcotest.test_case "young collections" `Quick
            test_g1_young_collections_bounded;
          Alcotest.test_case "evacuation failure accounting" `Quick
            test_g1_evacuation_failure_accounting;
          Alcotest.test_case "remsets exact after full gc" `Quick
            test_g1_remsets_exact_after_full_gc;
        ] );
      ( "hot-path structures",
        [
          Alcotest.test_case "epoch marking equivalence" `Quick
            test_epoch_marking_equivalence;
          QCheck_alcotest.to_alcotest prop_remset_invariant;
        ] );
      ( "random programs",
        List.map
          (fun kind -> QCheck_alcotest.to_alcotest (prop_random_program kind))
          Gc_config.all_kinds );
    ]
