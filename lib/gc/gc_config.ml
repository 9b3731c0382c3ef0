type kind =
  | Serial
  | ParNew
  | Parallel
  | ParallelOld
  | Cms
  | G1
  | Concurrent_regions
  | Journal_rc

(* The paper's six JDK8 collectors, in Table 1 order.  The pauseless
   family deliberately stays out of this list: every existing grid
   (fig3, table4, ...) iterates [all_kinds] and its goldens are frozen. *)
let all_kinds = [ Serial; ParNew; Parallel; ParallelOld; Cms; G1 ]

let concurrent_kinds = [ Concurrent_regions; Journal_rc ]

let extended_kinds = all_kinds @ concurrent_kinds

let kind_to_string = function
  | Serial -> "SerialGC"
  | ParNew -> "ParNewGC"
  | Parallel -> "ParallelGC"
  | ParallelOld -> "ParallelOldGC"
  | Cms -> "ConcMarkSweepGC"
  | G1 -> "G1GC"
  | Concurrent_regions -> "ConcurrentRegionsGC"
  | Journal_rc -> "JournalRCGC"

let kind_of_string s =
  match String.lowercase_ascii s with
  | "serial" | "serialgc" -> Some Serial
  | "parnew" | "parnewgc" -> Some ParNew
  | "parallel" | "parallelgc" -> Some Parallel
  | "parallelold" | "paralleloldgc" -> Some ParallelOld
  | "cms" | "concmarksweep" | "concmarksweepgc" | "concurrentmarksweep" ->
      Some Cms
  | "g1" | "g1gc" -> Some G1
  | "concurrent-regions" | "concurrentregions" | "concurrentregionsgc"
  | "zgc" | "shenandoah" ->
      Some Concurrent_regions
  | "journal-rc" | "journalrc" | "journalrcgc" | "mo-gc" | "mogc" | "rc" ->
      Some Journal_rc
  | _ -> None

let kind_names =
  List.map kind_to_string extended_kinds
  @ [
      "serial";
      "parnew";
      "parallel";
      "parallelold";
      "cms";
      "g1";
      "concurrent-regions";
      "zgc";
      "shenandoah";
      "journal-rc";
      "mo-gc";
      "rc";
    ]

type t = {
  kind : kind;
  heap_bytes : int;
  young_bytes : int;
  tlab : bool;
  survivor_ratio : int;
  tenuring_threshold : int;
  g1_parallel_full : bool;
  adaptive : bool;
  pause_goal_ms : float;
  journal_fold_jobs : int;
}

let mb n = n * 1024 * 1024
let gb n = n * 1024 * 1024 * 1024

let default kind ~heap_bytes ~young_bytes =
  if young_bytes > heap_bytes then
    invalid_arg "Gc_config.default: young generation larger than heap";
  {
    kind;
    heap_bytes;
    young_bytes;
    tlab = true;
    survivor_ratio = 8;
    tenuring_threshold = 6;
    g1_parallel_full = false;
    adaptive = false;
    pause_goal_ms = 200.0;
    journal_fold_jobs = 1;
  }

(* The study's baseline: ParallelOld defaults on the 64 GB machine —
   ~16 GB max heap, ~5.6 GB young generation. *)
let baseline kind =
  default kind ~heap_bytes:(gb 16) ~young_bytes:(mb 5734)

let mb_of b = b / (1024 * 1024)

(* One error at a time, phrased like the JVM flag the field mirrors so
   the message tells the user which knob to turn. *)
let validate t =
  if t.heap_bytes <= 0 then
    Error
      (Printf.sprintf "heap size must be positive (-Xmx), got %d bytes"
         t.heap_bytes)
  else if t.young_bytes <= 0 then
    Error
      (Printf.sprintf
         "young generation size must be positive (-Xmn), got %d bytes"
         t.young_bytes)
  else if t.young_bytes >= t.heap_bytes then
    Error
      (Printf.sprintf
         "young generation (-Xmn %dMB) must be smaller than the heap (-Xmx \
          %dMB); leave room for the old generation"
         (mb_of t.young_bytes) (mb_of t.heap_bytes))
  else if t.survivor_ratio < 1 then
    Error
      (Printf.sprintf
         "survivor ratio (-XX:SurvivorRatio) must be >= 1, got %d"
         t.survivor_ratio)
  else if t.tenuring_threshold < 1 || t.tenuring_threshold > 15 then
    Error
      (Printf.sprintf
         "tenuring threshold (-XX:MaxTenuringThreshold) must be in 1..15, \
          got %d"
         t.tenuring_threshold)
  else if t.pause_goal_ms <= 0.0 then
    Error
      (Printf.sprintf
         "pause goal (-XX:MaxGCPauseMillis) must be positive, got %g ms"
         t.pause_goal_ms)
  else if t.journal_fold_jobs < 1 then
    Error
      (Printf.sprintf
         "journal fold jobs (--journal-fold-jobs) must be >= 1, got %d"
         t.journal_fold_jobs)
  else Ok t
