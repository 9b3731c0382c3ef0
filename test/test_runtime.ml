(* Tests for the VM runtime: threads, roots, lifetimes, quantum stepping
   and mutator dilation. *)

module Vm = Gcperf_runtime.Vm
module Machine = Gcperf_machine.Machine
module Gc_config = Gcperf_gc.Gc_config

let mb = 1024 * 1024
let machine = Machine.paper_server ()

let fresh ?(kind = Gc_config.ParallelOld) () =
  Vm.create machine
    (Gc_config.default kind ~heap_bytes:(64 * mb) ~young_bytes:(16 * mb))
    ~seed:5

let test_threads () =
  let vm = fresh () in
  Alcotest.(check int) "no threads" 0 (List.length (Vm.threads vm));
  let a = Vm.spawn_thread vm in
  let b = Vm.spawn_thread vm in
  Alcotest.(check int) "two threads" 2 (List.length (Vm.threads vm));
  Alcotest.(check bool) "distinct ids" true (a.Vm.tid <> b.Vm.tid);
  Vm.kill_thread vm a;
  Alcotest.(check int) "one left" 1 (List.length (Vm.threads vm))

let test_kill_thread_drops_roots () =
  let vm = fresh () in
  let th = Vm.spawn_thread vm in
  let id = Vm.alloc vm th ~size:mb ~lifetime:`Permanent in
  Vm.kill_thread vm th;
  Vm.system_gc vm;
  Alcotest.(check bool) "object collected with its thread" false
    (Vm.is_live vm id)

let test_lifetime_expiry () =
  let vm = fresh () in
  let th = Vm.spawn_thread vm in
  (* Dies after 1 MB of further allocation. *)
  let short = Vm.alloc vm th ~size:(64 * 1024) ~lifetime:(`Bytes mb) in
  Alcotest.(check bool) "initially live" true (Vm.is_live vm short);
  for _ = 1 to 40 do
    ignore (Vm.alloc vm th ~size:(256 * 1024) ~lifetime:(`Bytes (64 * 1024)));
    Vm.step vm ~dt_us:100.0 (fun _ -> ())
  done;
  Vm.system_gc vm;
  Alcotest.(check bool) "expired and collected" false (Vm.is_live vm short)

let test_global_roots () =
  let vm = fresh () in
  let id = Vm.alloc_global vm ~size:mb ~lifetime:`Permanent in
  Vm.system_gc vm;
  Alcotest.(check bool) "global kept" true (Vm.is_live vm id);
  Vm.drop_global_root vm id;
  Vm.system_gc vm;
  Alcotest.(check bool) "dropped global collected" false (Vm.is_live vm id)

let test_reroot () =
  let vm = fresh () in
  let th = Vm.spawn_thread vm in
  let id = Vm.alloc vm th ~size:mb ~lifetime:`Permanent in
  Vm.global_root vm id;
  Vm.drop_root vm th id;
  Vm.system_gc vm;
  Alcotest.(check bool) "survives via global root" true (Vm.is_live vm id)

let test_alloc_old_global () =
  let vm = fresh () in
  let id = Vm.alloc_old_global vm ~size:mb ~lifetime:`Permanent in
  let store = (Vm.collector vm).Gcperf_gc.Collector.store in
  Alcotest.(check bool) "landed in the old generation" true
    (Gcperf_heap.Obj_store.is_old store id);
  Alcotest.(check bool) "old accounting" true
    ((Vm.collector vm).Gcperf_gc.Collector.old_used () >= mb)

let test_step_advances_clock () =
  let vm = fresh () in
  let _th = Vm.spawn_thread vm in
  let t0 = Vm.now_s vm in
  Vm.step vm ~dt_us:50_000.0 (fun _ -> ());
  Alcotest.(check bool) "advanced by >= dt" true
    (Vm.now_s vm -. t0 >= 0.05 -. 1e-9)

let test_step_visits_live_threads () =
  let vm = fresh () in
  let a = Vm.spawn_thread vm in
  let b = Vm.spawn_thread vm in
  Vm.kill_thread vm b;
  let visited = ref [] in
  Vm.step vm ~dt_us:100.0 (fun th -> visited := th.Vm.tid :: !visited);
  Alcotest.(check (list int)) "only live threads" [ a.Vm.tid ] !visited

let test_mutator_factor_sane () =
  let vm = fresh ~kind:Gc_config.Cms () in
  let th = Vm.spawn_thread vm in
  for _ = 1 to 100 do
    ignore (Vm.alloc vm th ~size:(512 * 1024) ~lifetime:`Permanent)
  done;
  for _ = 1 to 50 do
    ignore (Vm.alloc vm th ~size:(256 * 1024) ~lifetime:(`Bytes (64 * 1024)));
    Vm.step vm ~dt_us:100.0 (fun _ -> ())
  done;
  let factor = (Vm.collector vm).Gcperf_gc.Collector.mutator_factor () in
  Alcotest.(check bool) "factor >= 1" true (factor >= 1.0)

let test_tlab_config_changes_overhead () =
  (* The same program takes longer (virtual time) without TLABs when many
     threads allocate: the shared path is contended. *)
  let run tlab =
    let config =
      {
        (Gc_config.default Gc_config.ParallelOld ~heap_bytes:(512 * mb)
           ~young_bytes:(128 * mb))
        with
        Gc_config.tlab;
      }
    in
    let vm = Vm.create machine config ~seed:9 in
    for i = 1 to 16 do
      ignore i;
      ignore (Vm.spawn_thread vm)
    done;
    for _ = 1 to 50 do
      Vm.step vm ~dt_us:1000.0 (fun th ->
          for _ = 1 to 20 do
            ignore
              (Vm.alloc vm th ~size:(64 * 1024) ~lifetime:(`Bytes (64 * 1024)))
          done)
    done;
    Vm.now_s vm
  in
  Alcotest.(check bool) "no-TLAB run is slower" true (run false > run true)

let test_determinism () =
  let run () =
    let vm = fresh () in
    let th = Vm.spawn_thread vm in
    for _ = 1 to 200 do
      ignore (Vm.alloc vm th ~size:(300 * 1024) ~lifetime:(`Bytes (512 * 1024)));
      Vm.step vm ~dt_us:700.0 (fun _ -> ())
    done;
    (Vm.now_s vm, Gcperf_sim.Gc_event.count (Vm.events vm))
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "bit-identical reruns" true (a = b)

let test_allocated_bytes_counter () =
  let vm = fresh () in
  let th = Vm.spawn_thread vm in
  ignore (Vm.alloc vm th ~size:123 ~lifetime:`Permanent);
  ignore (Vm.alloc_global vm ~size:1000 ~lifetime:`Permanent);
  Alcotest.(check int) "cumulative" 1123 (Vm.allocated_bytes vm)

(* A thread-root and a global-root death with the same key (cumulative
   allocated bytes) come due in one quantum: both roots are dropped and
   collected, while a permanent root and a not-yet-due one survive.  The
   thread is the VM's second, so its packed owner is not the first tid. *)
let test_same_quantum_deaths () =
  let vm = fresh () in
  let _first = Vm.spawn_thread vm in
  let th = Vm.spawn_thread vm in
  let a0 = Vm.allocated_bytes vm in
  (* key = a0 + mb + 2 mb *)
  let t_id = Vm.alloc vm th ~size:mb ~lifetime:(`Bytes (2 * mb)) in
  (* key = a0 + 2 mb + mb *)
  let g_id = Vm.alloc_global vm ~size:mb ~lifetime:(`Bytes mb) in
  let keep = Vm.alloc vm th ~size:mb ~lifetime:`Permanent in
  let later = Vm.alloc_global vm ~size:mb ~lifetime:(`Bytes (32 * mb)) in
  Vm.system_gc vm;
  Alcotest.(check bool) "due deaths wait for the quantum" true
    (Vm.is_live vm t_id && Vm.is_live vm g_id);
  Vm.step vm ~dt_us:100.0 (fun th ->
      ignore (Vm.alloc vm th ~size:mb ~lifetime:`Permanent));
  Alcotest.(check bool) "both deaths due" true
    (Vm.allocated_bytes vm >= a0 + (3 * mb));
  Vm.system_gc vm;
  Alcotest.(check bool) "thread-root death dropped" false (Vm.is_live vm t_id);
  Alcotest.(check bool) "global-root death dropped" false (Vm.is_live vm g_id);
  Alcotest.(check bool) "permanent root kept" true (Vm.is_live vm keep);
  Alcotest.(check bool) "not-yet-due root kept" true (Vm.is_live vm later)

(* The death queue packs the owning tid into the low bits of its payload,
   so a VM refuses a thread whose tid would not fit. *)
(* The limit is checked through [Vm.check_tid], the function
   [spawn_thread] applies to each new tid: reaching it by spawning 65535
   threads would keep as many root tables alive (about 400 MB). *)
let test_spawn_thread_limit () =
  let raises tid =
    match Vm.check_tid tid with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "tid 0 fits" false (raises 0);
  Alcotest.(check bool) "tid 65534 fits" false (raises 65534);
  Alcotest.(check bool) "tid 65535 refused" true (raises 65535);
  Alcotest.(check bool) "negative tid refused" true (raises (-1));
  let vm = fresh () in
  let th = Vm.spawn_thread vm in
  Alcotest.(check int) "spawned tids start at 0" 0 th.Vm.tid

let () =
  Alcotest.run "runtime"
    [
      ( "vm",
        [
          Alcotest.test_case "thread lifecycle" `Quick test_threads;
          Alcotest.test_case "kill drops roots" `Quick test_kill_thread_drops_roots;
          Alcotest.test_case "lifetime expiry" `Quick test_lifetime_expiry;
          Alcotest.test_case "global roots" `Quick test_global_roots;
          Alcotest.test_case "re-rooting" `Quick test_reroot;
          Alcotest.test_case "direct old allocation" `Quick test_alloc_old_global;
          Alcotest.test_case "step advances clock" `Quick test_step_advances_clock;
          Alcotest.test_case "step visits live threads" `Quick
            test_step_visits_live_threads;
          Alcotest.test_case "mutator factor" `Quick test_mutator_factor_sane;
          Alcotest.test_case "tlab overhead" `Quick test_tlab_config_changes_overhead;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "allocation counter" `Quick test_allocated_bytes_counter;
          Alcotest.test_case "same-quantum deaths" `Quick test_same_quantum_deaths;
          Alcotest.test_case "spawn_thread packing limit" `Quick
            test_spawn_thread_limit;
        ] );
    ]
