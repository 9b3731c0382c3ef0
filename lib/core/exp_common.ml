module Machine = Gcperf_machine.Machine
module Gc_config = Gcperf_gc.Gc_config
module Pool = Gcperf_exec.Pool

(* Built once at module initialisation; [Machine.t] is a deeply
   immutable record, so worker domains share it read-only. *)
let paper_machine = Machine.paper_server ()

let machine () = paper_machine

let default_jobs () = Pool.default_jobs ()

let gb = Gc_config.gb
let mb = Gc_config.mb

let baseline kind = Gc_config.baseline kind

let config kind ~heap ~young ?(tlab = true) () =
  let c = Gc_config.default kind ~heap_bytes:heap ~young_bytes:young in
  { c with Gc_config.tlab }

(* §3.1: "We varied the maximum heap size from the baseline to the
   maximum amount of memory supported by the machine, i.e., 64GB.
   Separately, we varied the Young Generation size from the baseline to
   the heap size." *)
let size_grid () =
  [
    (gb 16, mb 5734);
    (gb 16, gb 8);
    (gb 16, gb 12);
    (gb 32, mb 5734);
    (gb 32, gb 12);
    (gb 32, gb 24);
    (gb 64, mb 5734);
    (gb 64, gb 12);
    (gb 64, gb 48);
  ]

let small_size_grid () =
  [
    (gb 1, mb 200);
    (gb 1, mb 100);
    (mb 500, mb 200);
    (mb 500, mb 100);
    (mb 250, mb 200);
    (mb 250, mb 100);
  ]

let all_kinds = Gc_config.all_kinds

let kind_name = Gc_config.kind_to_string

let seed = 42
