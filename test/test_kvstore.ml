(* Tests for the Cassandra-like key-value store. *)

module Vm = Gcperf_runtime.Vm
module Machine = Gcperf_machine.Machine
module Gc_config = Gcperf_gc.Gc_config
module Server = Gcperf_kvstore.Server

let mb = 1024 * 1024
let machine = Machine.paper_server ()

let fresh_vm ?(heap = 2048 * mb) () =
  Vm.create machine
    (Gc_config.default Gc_config.ParallelOld ~heap_bytes:heap
       ~young_bytes:(heap / 4))
    ~seed:31

let small_config =
  {
    Server.default_config with
    Server.memtable_flush_bytes = 64 * mb;
    service_threads = 4;
  }

let test_create () =
  let vm = fresh_vm () in
  let s = Server.create vm small_config ~seed:1 in
  Alcotest.(check int) "empty memtable" 0 (Server.memtable_bytes s);
  Alcotest.(check int) "no ops yet" 0 (Server.operations s);
  Alcotest.(check int) "no flushes yet" 0 (Server.flushes s)

let test_insert_accounting () =
  let vm = fresh_vm () in
  let s = Server.create vm small_config ~seed:1 in
  for _ = 1 to 100 do
    Server.perform s Server.Insert
  done;
  Alcotest.(check int) "memtable holds 100 records"
    (100 * small_config.Server.record_bytes)
    (Server.memtable_bytes s);
  Alcotest.(check bool) "commit log grew" true (Server.commitlog_bytes s > 0);
  Alcotest.(check int) "ops counted" 100 (Server.operations s)

let test_update_overwrites () =
  let vm = fresh_vm () in
  let s = Server.create vm small_config ~seed:1 in
  Server.perform s Server.Insert;
  let before = Server.memtable_bytes s in
  (* Updating the only key replaces its record: memtable size stays. *)
  for _ = 1 to 50 do
    Server.perform s Server.Update
  done;
  Alcotest.(check int) "overwrites do not grow the memtable" before
    (Server.memtable_bytes s);
  (* ... but the commit log records every write. *)
  Alcotest.(check bool) "commit log keeps growing" true
    (Server.commitlog_bytes s > before)

let test_reads_allocate_transients () =
  let vm = fresh_vm () in
  let s = Server.create vm small_config ~seed:1 in
  let before = Vm.allocated_bytes vm in
  for _ = 1 to 10 do
    Server.perform s Server.Read
  done;
  Alcotest.(check bool) "reads allocate" true (Vm.allocated_bytes vm > before);
  Alcotest.(check int) "reads do not touch the memtable" 0
    (Server.memtable_bytes s)

let test_flush () =
  let vm = fresh_vm () in
  let s = Server.create vm small_config ~seed:1 in
  (* 64 MB threshold / (20 KB record + 20 KB log) ~ 1600 writes. *)
  for _ = 1 to 2000 do
    Server.perform s Server.Insert
  done;
  Alcotest.(check bool) "flushed at least once" true (Server.flushes s >= 1);
  Alcotest.(check bool) "memtable below threshold" true
    (Server.memtable_bytes s + Server.commitlog_bytes s
    < small_config.Server.memtable_flush_bytes);
  (* The flushed data must be collectable: a full GC leaves the heap
     mostly empty. *)
  Vm.system_gc vm;
  let used = (Vm.collector vm).Gcperf_gc.Collector.heap_used () in
  Alcotest.(check bool) "flushed records were reclaimed" true
    (used < 96 * mb)

(* A flush forgets every key: an update drawn from the pre-flush key
   range installs a fresh record (the memtable grows by one record) and
   must not sever a reference through the dropped index's stale id, which
   after a collection may name a recycled slot. *)
let test_update_after_flush () =
  let vm = fresh_vm () in
  let record = small_config.Server.record_bytes in
  (* Each insert adds one record to the memtable and one to the commit
     log, so the tenth insert reaches the threshold and flushes. *)
  let config =
    { small_config with Server.memtable_flush_bytes = 10 * 2 * record }
  in
  let s = Server.create vm config ~seed:1 in
  for _ = 1 to 10 do
    Server.perform s Server.Insert
  done;
  Alcotest.(check int) "flushed once" 1 (Server.flushes s);
  Alcotest.(check int) "memtable empty" 0 (Server.memtable_bytes s);
  Vm.system_gc vm;
  Server.perform s Server.Update;
  Alcotest.(check int) "pre-flush key treated as absent" record
    (Server.memtable_bytes s);
  let store = (Vm.collector vm).Gcperf_gc.Collector.store in
  let refs = ref 0 in
  Gcperf_heap.Obj_store.iter_live store (fun id ->
      refs := !refs + Gcperf_heap.Obj_store.ref_count store id);
  Alcotest.(check int) "only the new record is referenced" 1 !refs

let test_replay_fills_old_gen () =
  let vm = fresh_vm () in
  let s = Server.create vm small_config ~seed:1 in
  Server.replay_commitlog s ~target_bytes:(32 * mb);
  Alcotest.(check bool) "memtable filled" true
    (Server.memtable_bytes s >= 32 * mb);
  Alcotest.(check bool) "data sits in the old generation" true
    ((Vm.collector vm).Gcperf_gc.Collector.old_used () >= 32 * mb);
  Alcotest.(check bool) "replay consumed virtual time" true (Vm.now_s vm > 0.0)

let test_run_timeline () =
  let vm = fresh_vm () in
  let s = Server.create vm small_config ~seed:1 in
  Server.run s ~duration_s:5.0 ~ops_per_s:400.0 ~read_frac:0.5
    ~insert_frac:0.25;
  Alcotest.(check bool) "about 2000 ops" true
    (abs (Server.operations s - 2000) < 200);
  let tl = Server.db_size_timeline s in
  Alcotest.(check bool) "timeline sampled" true (Array.length tl > 10);
  let sorted = ref true in
  for i = 1 to Array.length tl - 1 do
    if fst tl.(i) < fst tl.(i - 1) then sorted := false
  done;
  Alcotest.(check bool) "timeline chronological" true !sorted

let test_stress_config () =
  let c = Server.stress_config ~heap_bytes:(64 * 1024 * mb) in
  Alcotest.(check int) "flush threshold = heap" (64 * 1024 * mb)
    c.Server.memtable_flush_bytes

let test_rooted_records_survive_gc () =
  let vm = fresh_vm () in
  let s = Server.create vm small_config ~seed:1 in
  for _ = 1 to 500 do
    Server.perform s Server.Insert
  done;
  let memtable_before = Server.memtable_bytes s in
  Vm.system_gc vm;
  (* The memtable is reachable from the index objects: a full collection
     must not lose it. *)
  let used = (Vm.collector vm).Gcperf_gc.Collector.heap_used () in
  Alcotest.(check bool) "memtable retained across full GC" true
    (used >= memtable_before)

let () =
  Alcotest.run "kvstore"
    [
      ( "server",
        [
          Alcotest.test_case "create" `Quick test_create;
          Alcotest.test_case "insert accounting" `Quick test_insert_accounting;
          Alcotest.test_case "updates overwrite" `Quick test_update_overwrites;
          Alcotest.test_case "reads allocate" `Quick test_reads_allocate_transients;
          Alcotest.test_case "flush" `Quick test_flush;
          Alcotest.test_case "update after flush" `Quick
            test_update_after_flush;
          Alcotest.test_case "replay" `Quick test_replay_fills_old_gen;
          Alcotest.test_case "run + timeline" `Quick test_run_timeline;
          Alcotest.test_case "stress config" `Quick test_stress_config;
          Alcotest.test_case "records survive GC" `Quick
            test_rooted_records_survive_gc;
        ] );
    ]
