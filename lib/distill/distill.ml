(* LBO cost distillation (DESIGN.md §18).

   Following Cai & Blackburn ("Distilling the Real Cost of Production
   Garbage Collectors"), the cost a collector imposes is measured
   against a lower-bound-overhead baseline: the same run with every
   collector cost struck out but the honest allocation tax retained.
   The runtime records exactly that decomposition while it executes
   (Cost counters + the pause log), so the ideal baseline is synthesised
   by replaying the accounted timeline:

     t_ideal = raw mutator time + allocation tax
     t_real  = t_ideal + stop-the-world + stolen cores + mutator tax

   and the distilled cost is (t_real − t_ideal) / t_ideal, reported as
   the sum of its three shares so the decomposition is additive by
   construction. *)

module Telemetry = Gcperf_telemetry.Telemetry
module Cost = Gcperf_telemetry.Cost
module Gc_event = Gcperf_sim.Gc_event

type components = {
  raw_us : float;
  alloc_us : float;
  stw_us : float;
  steal_us : float;
  tax_us : float;
  phases : (Gc_event.phase * float) list;
}

type cost = {
  components : components;
  t_ideal_us : float;
  t_real_us : float;
  stw_over : float;
  steal_over : float;
  tax_over : float;
  distilled : float;
}

(* Reads the Cost counters and pause log of one run. *)
let of_telemetry t log =
  let taxes = Cost.taxes t in
  {
    raw_us = taxes.Cost.raw_us;
    alloc_us = taxes.Cost.alloc_us;
    stw_us = Cost.stw_total_us log;
    steal_us = taxes.Cost.steal_us;
    tax_us = taxes.Cost.barrier_us;
    phases = Cost.stw_phase_us log;
  }

(* Components are non-negative by construction when they come from the
   runtime counters; clamping here makes [distill] total over arbitrary
   inputs (the qcheck property feeds it raw generated floats). *)
let pos x = if Float.is_nan x then 0.0 else Float.max 0.0 x

let distill c =
  let c =
    {
      c with
      raw_us = pos c.raw_us;
      alloc_us = pos c.alloc_us;
      stw_us = pos c.stw_us;
      steal_us = pos c.steal_us;
      tax_us = pos c.tax_us;
    }
  in
  let t_ideal_us = c.raw_us +. c.alloc_us in
  let t_real_us = t_ideal_us +. c.stw_us +. c.steal_us +. c.tax_us in
  if t_ideal_us <= 0.0 then
    {
      components = c;
      t_ideal_us;
      t_real_us;
      stw_over = 0.0;
      steal_over = 0.0;
      tax_over = 0.0;
      distilled = 0.0;
    }
  else
    let stw_over = c.stw_us /. t_ideal_us in
    let steal_over = c.steal_us /. t_ideal_us in
    let tax_over = c.tax_us /. t_ideal_us in
    {
      components = c;
      t_ideal_us;
      t_real_us;
      stw_over;
      steal_over;
      tax_over;
      distilled = stw_over +. steal_over +. tax_over;
    }

let of_run t log = distill (of_telemetry t log)
