(* Cost extraction for the LBO distillation methodology (DESIGN.md §18).

   The runtime accounts every microsecond the collector adds on top of
   the raw mutator timeline into four counters (registered here so the
   names cannot drift between the producer in Vm.step and the consumers
   in lib/distill):

     cost.mutator_raw_us   Σ dt over all quanta — the recorded mutator
                           timeline with every collector cost struck out
     cost.alloc_tax_us     allocation-path overhead (TLAB refills or the
                           serialised CAS bump) — charged to the ideal
                           baseline too: an ideal GC still has to hand
                           out memory
     cost.barrier_tax_us   mutator tax: barrier/journal/backpressure
                           dilation charged on quanta even when no GC
                           worker is running
     cost.steal_tax_us     core-stealing dilation from concurrent GC
                           workers

   Stop-the-world time is not re-counted here: the pause log keeps every
   pause's duration and phases, and this module reads them back out. *)

module Gc_event = Gcperf_sim.Gc_event

let mutator_raw_us = "cost.mutator_raw_us"
let alloc_tax_us = "cost.alloc_tax_us"
let barrier_tax_us = "cost.barrier_tax_us"
let steal_tax_us = "cost.steal_tax_us"

type taxes = {
  raw_us : float;
  alloc_us : float;
  barrier_us : float;
  steal_us : float;
}

let taxes t =
  let m = Telemetry.metrics t in
  {
    raw_us = Metrics.counter m mutator_raw_us;
    alloc_us = Metrics.counter m alloc_tax_us;
    barrier_us = Metrics.counter m barrier_tax_us;
    steal_us = Metrics.counter m steal_tax_us;
  }

(* Summed from 0.0 in log order, the order record_pause bumps
   gc.pause_us_total, so the two agree bit for bit. *)
let stw_total_us log =
  let total = ref 0.0 in
  for i = 0 to Gc_event.count log - 1 do
    total := !total +. (Gc_event.nth log i).Gc_event.duration_us
  done;
  !total

let stw_phase_us log =
  List.filter_map
    (fun p ->
      let total = ref 0.0 in
      for i = 0 to Gc_event.count log - 1 do
        total := !total +. Gc_event.phase_us log i p
      done;
      if !total > 0.0 then Some (p, !total) else None)
    Gc_event.all_phases
