(** Ablation studies for the design choices DESIGN.md calls out.

    Three of the modelling decisions behind the reproduction are
    load-bearing; each ablation removes one and measures the consequence:

    - {b G1's serial full collection} (JDK8) is what makes G1 the worst
      collector under DaCapo's forced system GCs.  The ablation runs the
      same campaign with a parallel full collection (JDK10's change) and
      shows the penalty mostly disappears — i.e. the paper's headline
      benchmark finding is specific to the JDK8 implementation.
    - {b The NUMA remote-access penalty} is what keeps stop-the-world
      collections from scaling to 48 cores (Gidra et al.).  The ablation
      sets the penalty to 1 and shows multi-minute server full
      collections shrink dramatically.
    - {b Tenuring} spreads promotion over time.  The ablation sweeps the
      maximum tenuring threshold and shows both extremes hurt: threshold
      1 promotes everything (old fills, long pauses), very high
      thresholds re-copy survivors forever. *)

type g1_full_row = {
  mode : string;  (** "serial (JDK8)" or "parallel (ablation)" *)
  total_s : float;
  max_full_pause_s : float;
}

type numa_row = {
  numa_factor : float;
  full_pause_s : float;  (** stressed-server full collection *)
}

type tenuring_row = {
  threshold : int;
  pauses : int;
  avg_pause_s : float;
  total_pause_s : float;
}

type result = {
  g1_full : g1_full_row list;
  numa : numa_row list;
  tenuring : tenuring_row list;
}

val run_scope : scope:Scope.t -> ?jobs:int -> unit -> result

val render : result -> string
