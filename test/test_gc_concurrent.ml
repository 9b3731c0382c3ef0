(* Pauseless collector family: concurrent region collector and the
   journaled-RC collector.

   Covers the config/registry round-trip (including the colloquial
   aliases), the forwarding-table/load-barrier invariants as a qcheck
   property, the journal fold against a per-entry reference, and
   collector correctness through the VM: rooted data
   survives, garbage is reclaimed, every pause is a flip-class pause,
   and the space accounting invariants hold. *)

module Vm = Gcperf_runtime.Vm
module Machine = Gcperf_machine.Machine
module Gc_config = Gcperf_gc.Gc_config
module Gc_event = Gcperf_sim.Gc_event
module Os = Gcperf_heap.Obj_store
module Journal = Gcperf_gc.Journal

let mb = 1024 * 1024
let machine = Machine.paper_server ()

let small_config kind =
  Gc_config.default kind ~heap_bytes:(64 * mb) ~young_bytes:(16 * mb)

let concurrent_kind_cases f =
  List.map
    (fun kind ->
      Alcotest.test_case (Gc_config.kind_to_string kind) `Quick (fun () ->
          f kind))
    Gc_config.concurrent_kinds

let check_invariants vm =
  match Vm.check_invariants vm with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("invariant violation: " ^ e)

(* --- config round-trip and aliases ----------------------------------- *)

let test_round_trip () =
  List.iter
    (fun kind ->
      let s = Gc_config.kind_to_string kind in
      match Gc_config.kind_of_string s with
      | Some k ->
          Alcotest.(check string)
            (s ^ " round-trips") s (Gc_config.kind_to_string k)
      | None -> Alcotest.fail (s ^ " does not parse back"))
    Gc_config.extended_kinds

let test_aliases () =
  let expect alias kind =
    match Gc_config.kind_of_string alias with
    | Some k ->
        Alcotest.(check string)
          (alias ^ " resolves")
          (Gc_config.kind_to_string kind)
          (Gc_config.kind_to_string k)
    | None -> Alcotest.fail (alias ^ " not recognised")
  in
  expect "concurrent-regions" Gc_config.Concurrent_regions;
  expect "zgc" Gc_config.Concurrent_regions;
  expect "shenandoah" Gc_config.Concurrent_regions;
  expect "ConcurrentRegionsGC" Gc_config.Concurrent_regions;
  expect "journal-rc" Gc_config.Journal_rc;
  expect "mo-gc" Gc_config.Journal_rc;
  expect "rc" Gc_config.Journal_rc;
  expect "JournalRCGC" Gc_config.Journal_rc;
  (* The classic kinds list stays frozen (goldens depend on it); the
     extended list is classic + concurrent. *)
  Alcotest.(check int) "six classic kinds" 6 (List.length Gc_config.all_kinds);
  Alcotest.(check int)
    "extended = classic + 2"
    (List.length Gc_config.all_kinds + 2)
    (List.length Gc_config.extended_kinds)

let test_registry_round_trip () =
  (* Building a VM for each extended kind proves [Registry.create]
     dispatches every kind, and that the collector reports the kind it
     was asked for. *)
  List.iter
    (fun kind ->
      let vm = Vm.create machine (small_config kind) ~seed:11 in
      let c = Vm.collector vm in
      Alcotest.(check string)
        (Gc_config.kind_to_string kind ^ " built")
        (Gc_config.kind_to_string kind)
        (Gc_config.kind_to_string c.Gcperf_gc.Collector.kind))
    Gc_config.extended_kinds

let test_validate () =
  let base = small_config Gc_config.Journal_rc in
  (match Gc_config.validate base with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("default journal-rc config rejected: " ^ e));
  match Gc_config.validate { base with Gc_config.journal_fold_jobs = 0 } with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "fold jobs 0 must be rejected"

(* --- forwarding table / load barrier properties ----------------------- *)

(* Random interleavings of forwarding-table operations, checked against
   a model: after any sequence of record/read/heal-all, (a) a remapped
   slot is never forwarded again in the same epoch (the slow path runs
   exactly once per object), (b) pending counts exactly the recorded-
   but-unhealed ids, and (c) a new epoch instantly invalidates every
   entry without touching per-object state. *)
let forwarding_prop ops =
  let s = Os.create () in
  let n = 64 in
  let ids = Array.init n (fun _ -> Os.alloc s ~size:32 ~loc:Os.Old) in
  (* Model: an id is in at most one of [forwarded] (recorded, unhealed)
     or [healed] (remapped this epoch).  Re-recording a healed id is a
     no-op in the table — within one epoch an object relocates once, so
     its slot can never re-enter the table after it was remapped. *)
  let forwarded = Hashtbl.create 16 and healed = Hashtbl.create 16 in
  Os.fwd_begin s;
  let ok = ref true in
  let check b = if not b then ok := false in
  List.iter
    (fun op ->
      match op with
      | `Record i ->
          let id = ids.(i mod n) in
          Os.fwd_record s id;
          if not (Hashtbl.mem forwarded id || Hashtbl.mem healed id) then
            Hashtbl.replace forwarded id ()
      | `Read i ->
          let id = ids.(i mod n) in
          let expected = Hashtbl.mem forwarded id in
          check (Os.fwd_read s id = expected);
          (* Self-healing: the second read never takes the slow path. *)
          check (not (Os.fwd_read s id));
          if expected then begin
            Hashtbl.remove forwarded id;
            Hashtbl.replace healed id ()
          end
      | `Heal_all ->
          let count = Os.fwd_heal_all s in
          check (count = Hashtbl.length forwarded);
          Hashtbl.iter (fun id () -> Hashtbl.replace healed id ()) forwarded;
          Hashtbl.reset forwarded
      | `New_epoch ->
          Os.fwd_begin s;
          Hashtbl.reset forwarded;
          Hashtbl.reset healed)
    ops;
  check (Os.fwd_pending s = Hashtbl.length forwarded);
  !ok

let forwarding_qcheck =
  let op =
    QCheck.oneof
      [
        QCheck.map (fun i -> `Record i) QCheck.small_nat;
        QCheck.map (fun i -> `Read i) QCheck.small_nat;
        QCheck.always `Heal_all;
        QCheck.always `New_epoch;
      ]
  in
  QCheck.Test.make ~count:200 ~name:"forwarding/load-barrier invariants"
    (QCheck.list_of_size (QCheck.Gen.int_range 0 120) op)
    forwarding_prop

(* --- journal fold ------------------------------------------------------ *)

let test_fold_sum () =
  let cells = 257 in
  let entries = 5_000 in
  let j = Journal.create () in
  let state = ref 42 in
  let rand m =
    state := ((!state * 48271) + 11) land 0x3FFFFFFF;
    !state mod m
  in
  for _ = 1 to entries do
    Journal.append j (rand cells) (match rand 3 with 0 -> 1 | 1 -> -1 | _ -> 0)
  done;
  let expected = Array.init cells (fun i -> i) in
  Journal.iter j (fun id d -> expected.(id) <- expected.(id) + d);
  let rc = Array.init cells (fun i -> i) in
  Alcotest.(check int) "all entries applied" entries (Journal.fold j ~rc);
  Alcotest.(check (array int)) "fold = per-entry sum" expected rc;
  Alcotest.(check int) "fold leaves the journal" entries (Journal.length j)

(* Entries pack the delta into two bits: every legal delta must come back
   unchanged through [iter] and [fold], and any other delta is refused. *)
let test_journal_round_trip () =
  let j = Journal.create () in
  let entries = [ (0, -1); (1, 0); (2, 1); (1 lsl 40, 1); (7, -1); (7, 0) ] in
  List.iter (fun (id, d) -> Journal.append j id d) entries;
  Alcotest.(check int) "one entry per append" (List.length entries)
    (Journal.length j);
  let seen = ref [] in
  Journal.iter j (fun id d -> seen := (id, d) :: !seen);
  Alcotest.(check (list (pair int int))) "iter round-trips" entries
    (List.rev !seen);
  let small = Journal.create () in
  List.iter
    (fun (id, d) -> Journal.append small id d)
    [ (0, -1); (1, 0); (2, 1); (2, 1) ];
  let rc = [| 10; 10; 10 |] in
  Alcotest.(check int) "fold count" 4 (Journal.fold small ~rc);
  Alcotest.(check (array int)) "fold round-trips" [| 9; 10; 12 |] rc;
  List.iter
    (fun d ->
      match Journal.append j 3 d with
      | () -> Alcotest.failf "delta %d accepted" d
      | exception Invalid_argument _ -> ())
    [ -2; 2; 5 ];
  Alcotest.(check int) "refused deltas not logged" (List.length entries)
    (Journal.length j)

(* --- collector correctness through the VM ----------------------------- *)

let test_rooted_survive kind =
  let vm = Vm.create machine (small_config kind) ~seed:3 in
  let th = Vm.spawn_thread vm in
  let keep = List.init 64 (fun _ -> Vm.alloc vm th ~size:4096 ~lifetime:`Permanent) in
  (* Churn enough garbage to force many cycles/folds. *)
  for _ = 1 to 20_000 do
    let id = Vm.alloc vm th ~size:8192 ~lifetime:`Permanent in
    Vm.drop_root vm th id
  done;
  Vm.system_gc vm;
  List.iter
    (fun id ->
      Alcotest.(check bool) "rooted object survives" true (Vm.is_live vm id))
    keep;
  check_invariants vm

let test_garbage_reclaimed kind =
  let vm = Vm.create machine (small_config kind) ~seed:4 in
  let th = Vm.spawn_thread vm in
  (* 20k * 8 KB = 160 MB of garbage through a 64 MB heap: reclamation
     must happen or the allocations would OOM. *)
  let dead = ref [] in
  for i = 1 to 20_000 do
    let id = Vm.alloc vm th ~size:8192 ~lifetime:`Permanent in
    if i mod 100 = 0 then dead := id :: !dead;
    Vm.drop_root vm th id
  done;
  Vm.system_gc vm;
  List.iter
    (fun id ->
      Alcotest.(check bool) "garbage reclaimed" false (Vm.is_live vm id))
    !dead;
  let c = Vm.collector vm in
  Alcotest.(check bool)
    "heap not exhausted" true
    (c.Gcperf_gc.Collector.heap_used () < 64 * mb);
  check_invariants vm

let test_refs_keep_alive kind =
  let vm = Vm.create machine (small_config kind) ~seed:5 in
  let th = Vm.spawn_thread vm in
  let parent = Vm.alloc vm th ~size:4096 ~lifetime:`Permanent in
  let child = Vm.alloc vm th ~size:4096 ~lifetime:`Permanent in
  Vm.add_ref vm ~parent ~child;
  Vm.drop_root vm th child;
  for _ = 1 to 20_000 do
    let id = Vm.alloc vm th ~size:8192 ~lifetime:`Permanent in
    Vm.drop_root vm th id
  done;
  Vm.system_gc vm;
  Alcotest.(check bool) "referenced child survives" true (Vm.is_live vm child);
  Vm.remove_ref vm ~parent ~child;
  for _ = 1 to 20_000 do
    let id = Vm.alloc vm th ~size:8192 ~lifetime:`Permanent in
    Vm.drop_root vm th id
  done;
  Vm.system_gc vm;
  Alcotest.(check bool) "unreferenced child reclaimed" false
    (Vm.is_live vm child);
  check_invariants vm

(* Every pause the pauseless family takes outside degenerate allocation
   stalls is a flip: Initial_mark / Remark / Cleanup, never Young/Mixed,
   and Full only with a stall/system.gc reason. *)
let test_pause_classes kind =
  let vm = Vm.create machine (small_config kind) ~seed:6 in
  let th = Vm.spawn_thread vm in
  for _ = 1 to 30_000 do
    let id = Vm.alloc vm th ~size:8192 ~lifetime:`Permanent in
    Vm.drop_root vm th id;
    Vm.step vm ~dt_us:50.0 (fun _ -> ())
  done;
  let events = Gc_event.events (Vm.events vm) in
  Alcotest.(check bool) "collector paused at least once" true
    (List.length events > 0);
  List.iter
    (fun (e : Gc_event.event) ->
      match e.Gc_event.kind with
      | Gc_event.Initial_mark | Gc_event.Remark | Gc_event.Cleanup -> ()
      | Gc_event.Full ->
          Alcotest.(check bool)
            ("full pause has a degenerate reason: " ^ e.Gc_event.reason)
            true
            (List.mem e.Gc_event.reason
               [
                 "allocation stall";
                 "humongous allocation stall";
                 "allocation failure";
                 "system.gc";
               ])
      | Gc_event.Young | Gc_event.Mixed ->
          Alcotest.fail "pauseless collector took a generational pause")
    events

let () =
  Alcotest.run "gc_concurrent"
    [
      ( "config",
        [
          Alcotest.test_case "round-trip" `Quick test_round_trip;
          Alcotest.test_case "aliases" `Quick test_aliases;
          Alcotest.test_case "registry round-trip" `Quick
            test_registry_round_trip;
          Alcotest.test_case "validation" `Quick test_validate;
        ] );
      ("forwarding", [ QCheck_alcotest.to_alcotest forwarding_qcheck ]);
      ( "journal",
        [
          Alcotest.test_case "fold equals the per-entry sum" `Quick
            test_fold_sum;
          Alcotest.test_case "journal entries round-trip" `Quick
            test_journal_round_trip;
        ] );
      ("rooted-survive", concurrent_kind_cases test_rooted_survive);
      ("garbage-reclaimed", concurrent_kind_cases test_garbage_reclaimed);
      ("refs-keep-alive", concurrent_kind_cases test_refs_keep_alive);
      ("pause-classes", concurrent_kind_cases test_pause_classes);
    ]
