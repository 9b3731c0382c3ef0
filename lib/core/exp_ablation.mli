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

val run_scope :
  Artifact.make -> scope:Scope.t -> ?jobs:int -> unit -> Artifact.t
(** One row per measured figure: [section] ("g1-full", "numa" or
    "tenuring"), [config] (the full-GC mode, the NUMA factor as [%g] or
    the tenuring threshold), [metric] and its [value]. *)

val render : Artifact.t -> string
