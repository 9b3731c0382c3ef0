(** Collector selection and VM memory configuration.

    Mirrors the JVM flags the paper varies: [-XX:+Use...GC], [-Xmx]/[-Xms]
    (fixed-size heap), [-Xmn] (young generation size) and [-XX:+UseTLAB],
    plus [-XX:SurvivorRatio], [-XX:MaxTenuringThreshold],
    [-XX:+UseAdaptiveSizePolicy] and [-XX:MaxGCPauseMillis] for the
    ablations.  Tunables no experiment varies are constants in the module
    that reads them (CMS initiating occupancy in [Gc_cms], G1's IHOP in
    [Gc_g1], the TLAB size in [Vm]). *)

type kind =
  | Serial
  | ParNew
  | Parallel
  | ParallelOld
  | Cms
  | G1
  | Concurrent_regions
      (** ZGC/Shenandoah-style region collector: concurrent mark with an
          SATB write-barrier tax, concurrent relocation behind
          self-healing load barriers, sub-ms flip safepoints *)
  | Journal_rc
      (** mo-gc-style journaled reference counting: mutators append RC
          deltas to journals, a concurrent thread folds them into the
          object map *)

val all_kinds : kind list
(** The paper's six JDK8 collectors, in Table 1 order.  The pauseless
    family is deliberately excluded so the frozen six-collector grids
    (and their goldens) are unchanged; use {!extended_kinds} to iterate
    everything. *)

val concurrent_kinds : kind list
(** The pauseless family: [Concurrent_regions; Journal_rc]. *)

val extended_kinds : kind list
(** [all_kinds @ concurrent_kinds]. *)

val kind_to_string : kind -> string
(** JVM-style names: "SerialGC", "ParNewGC", ..., "G1GC",
    "ConcurrentRegionsGC", "JournalRCGC". *)

val kind_of_string : string -> kind option
(** Accepts both JVM-style ("ConcMarkSweepGC") and short ("cms") names,
    case-insensitively, plus pauseless aliases ("zgc", "shenandoah" for
    the region collector; "mo-gc", "rc" for journaled RC). *)

val kind_names : string list
(** Every spelling {!kind_of_string}'s canonical forms accept (JVM-style
    and short), for "did you mean" suggestions. *)

type t = {
  kind : kind;
  heap_bytes : int;  (** fixed heap size (-Xms = -Xmx, as in the study) *)
  young_bytes : int;  (** young generation size (-Xmn) *)
  tlab : bool;
  survivor_ratio : int;
  tenuring_threshold : int;
  g1_parallel_full : bool;
      (** ablation switch: run G1's full collection on the parallel
          workers instead of JDK8's single thread (JDK10's behaviour);
          default false, i.e. faithful to the paper's JVM *)
  adaptive : bool;
      (** [-XX:+UseAdaptiveSizePolicy]: attach the ergonomics policy that
          resizes the young generation at safepoints.  Default false —
          the study disables it, and fixed-size runs are byte-identical
          with or without the policy subsystem built in. *)
  pause_goal_ms : float;
      (** [-XX:MaxGCPauseMillis] for the adaptive policy *)
  journal_fold_jobs : int;
      (** Journal_rc only: simulated worker count for the concurrent
          journal fold ([--journal-fold-jobs]).  1 reproduces mo-gc's
          single-threaded map-insertion bottleneck; higher values relieve
          it via the machine's parallel speedup curve.  This knob scales
          simulated fold {e time} only — the fold {e result} is
          byte-identical at any value. *)
}

val default : kind -> heap_bytes:int -> young_bytes:int -> t
(** JDK8-like defaults for everything else (TLAB on, SurvivorRatio 8,
    MaxTenuringThreshold 6, 200 ms pause goal, one fold worker). *)

val gb : int -> int
val mb : int -> int

val baseline : kind -> t
(** The study's baseline: ~16 GB heap, ~5.6 GB young generation, TLAB
    enabled. *)

val validate : t -> (t, string) result
(** Rejects configurations that would only fail deep inside the simulator
    (young >= heap, survivor ratio < 1, out-of-range thresholds,
    non-positive pause goal or fold workers) with an actionable message
    naming the JVM flag to fix.  The CLI funnels every user-supplied
    configuration through this. *)
