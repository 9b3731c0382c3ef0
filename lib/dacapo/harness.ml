module Vm = Gcperf_runtime.Vm
module Mutator = Gcperf_workload.Mutator
module Gc_config = Gcperf_gc.Gc_config
module Gc_event = Gcperf_sim.Gc_event

type result = {
  bench_name : string;
  gc_name : string;
  heap_bytes : int;
  young_bytes : int;
  tlab : bool;
  system_gc : bool;
  crashed : bool;
  oom : bool;
  iterations : Mutator.iteration_stats array;
  total_s : float;
  final_s : float;
  events : Gc_event.event list;
}

let base_result (bench : Suite.bench) (gc : Gc_config.t) ~system_gc =
  {
    bench_name = bench.Suite.profile.Gcperf_workload.Profile.name;
    gc_name = Gc_config.kind_to_string gc.Gc_config.kind;
    heap_bytes = gc.Gc_config.heap_bytes;
    young_bytes = gc.Gc_config.young_bytes;
    tlab = gc.Gc_config.tlab;
    system_gc;
    crashed = false;
    oom = false;
    iterations = [||];
    total_s = 0.0;
    final_s = 0.0;
    events = [];
  }

let run_with_log ?telemetry ?(seed = 42) ?(iterations = 10) machine
    (bench : Suite.bench) ~gc ~system_gc () =
  let base = base_result bench gc ~system_gc in
  if bench.Suite.crashes then
    ({ base with crashed = true }, Gc_event.create ())
  else begin
    let vm = Vm.create ?telemetry machine gc ~seed in
    let result =
      match Mutator.create vm bench.Suite.profile ~seed:(seed * 7919 + 13) with
      | exception Gcperf_gc.Gc_ctx.Out_of_memory _ -> { base with oom = true }
      | mutator -> (
          let stats = ref [] in
          let start_s = Vm.now_s vm in
          match
            for i = 1 to iterations do
              let s = Mutator.run_iteration mutator in
              stats := s :: !stats;
              (* DaCapo forces a full collection between iterations. *)
              if system_gc && i < iterations then Vm.system_gc vm
            done
          with
          | exception Gcperf_gc.Gc_ctx.Out_of_memory _ ->
              let arr = Array.of_list (List.rev !stats) in
              { base with oom = true; iterations = arr }
          | () ->
              let arr = Array.of_list (List.rev !stats) in
              (* Total execution time spans the whole run, including the
                 forced collections between iterations. *)
              let total = Vm.now_s vm -. start_s in
              let final =
                if Array.length arr = 0 then 0.0
                else arr.(Array.length arr - 1).Mutator.duration_s
              in
              {
                base with
                iterations = arr;
                total_s = total;
                final_s = final;
                events = Gc_event.events (Vm.events vm);
              })
    in
    (result, Vm.events vm)
  end

let run ?telemetry ?seed ?iterations machine bench ~gc ~system_gc () =
  fst
    (run_with_log ?telemetry ?seed ?iterations machine bench ~gc ~system_gc ())

let best_of results =
  let usable = List.filter (fun r -> (not r.crashed) && not r.oom) results in
  match usable with
  | [] -> None
  | hd :: tl ->
      Some
        (List.fold_left
           (fun best r -> if r.total_s < best.total_s then r else best)
           hd tl)
