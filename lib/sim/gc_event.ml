type pause_kind = Young | Full | Initial_mark | Remark | Mixed | Cleanup

let pause_kind_to_string = function
  | Young -> "young"
  | Full -> "full"
  | Initial_mark -> "initial-mark"
  | Remark -> "remark"
  | Mixed -> "mixed"
  | Cleanup -> "cleanup"

let is_full = function
  | Full -> true
  | Young | Initial_mark | Remark | Mixed | Cleanup -> false

let[@inline] kind_tag = function
  | Young -> 0
  | Full -> 1
  | Initial_mark -> 2
  | Remark -> 3
  | Mixed -> 4
  | Cleanup -> 5

let kind_of_tag = function
  | 0 -> Young
  | 1 -> Full
  | 2 -> Initial_mark
  | 3 -> Remark
  | 4 -> Mixed
  | _ -> Cleanup

type phase =
  | Safepoint
  | Root_scan
  | Card_scan
  | Mark
  | Copy
  | Promote
  | Sweep
  | Compact
  | Region_overhead
  | Fixed
  | Plan
  | Move
  | Remap
  | Fold

let phase_to_string = function
  | Safepoint -> "safepoint"
  | Root_scan -> "root-scan"
  | Card_scan -> "card-scan"
  | Mark -> "mark"
  | Copy -> "copy"
  | Promote -> "promote"
  | Sweep -> "sweep"
  | Compact -> "compact"
  | Region_overhead -> "region-overhead"
  | Fixed -> "fixed"
  | Plan -> "plan"
  | Move -> "move"
  | Remap -> "remap"
  | Fold -> "fold"

(* Remap/Fold (pauseless flips) are appended after Fixed so the existing
   per-phase CSV columns keep their positions. *)
let all_phases =
  [
    Safepoint; Root_scan; Card_scan; Mark; Copy; Promote; Sweep; Compact;
    Region_overhead; Fixed; Remap; Fold;
  ]

let[@inline] phase_tag = function
  | Safepoint -> 0
  | Root_scan -> 1
  | Card_scan -> 2
  | Mark -> 3
  | Copy -> 4
  | Promote -> 5
  | Sweep -> 6
  | Compact -> 7
  | Region_overhead -> 8
  | Fixed -> 9
  | Plan -> 10
  | Move -> 11
  | Remap -> 12
  | Fold -> 13

let phase_of_tag = function
  | 0 -> Safepoint
  | 1 -> Root_scan
  | 2 -> Card_scan
  | 3 -> Mark
  | 4 -> Copy
  | 5 -> Promote
  | 6 -> Sweep
  | 7 -> Compact
  | 8 -> Region_overhead
  | 9 -> Fixed
  | 10 -> Plan
  | 11 -> Move
  | 12 -> Remap
  | _ -> Fold

(* A phase entry's code is its tag, plus [sub_bit] for a sub-phase
   attribution. *)
let sub_bit = 16

type event = {
  start_us : float;
  duration_us : float;
  kind : pause_kind;
  collector : string;
  reason : string;
  young_before : int;
  young_after : int;
  old_before : int;
  old_after : int;
  promoted : int;
}

(* Struct-of-arrays log.  A pause record sits on every collection's exit
   path, so the hot [record] must not allocate in the host runtime: the
   float columns store unboxed, the int columns are immediate stores, and
   the two string columns reuse interned collector/reason strings the
   caller already holds.  The [event] record view is materialised only by
   the cold accessors.

   Phase entries form a second pair of columns, appended in charge order
   while a pause is built; [phase_endv.(i)] is the entry count when pause
   [i] closed, so pause [i] owns the entries from [phase_endv.(i - 1)]
   (0 for the first) up to it. *)
type t = {
  mutable start_usv : float array;
  mutable duration_usv : float array;
  mutable kindv : int array;
  mutable collectorv : string array;
  mutable reasonv : string array;
  mutable young_beforev : int array;
  mutable young_afterv : int array;
  mutable old_beforev : int array;
  mutable old_afterv : int array;
  mutable promotedv : int array;
  mutable phase_endv : int array;
  mutable len : int;
  mutable full_count : int;
  mutable codev : int array;
  mutable usv : float array;
  mutable entries : int;
}

let create () =
  {
    start_usv = [||];
    duration_usv = [||];
    kindv = [||];
    collectorv = [||];
    reasonv = [||];
    young_beforev = [||];
    young_afterv = [||];
    old_beforev = [||];
    old_afterv = [||];
    promotedv = [||];
    phase_endv = [||];
    len = 0;
    full_count = 0;
    codev = [||];
    usv = [||];
    entries = 0;
  }

let[@inline never] grow t =
  let cap = Array.length t.kindv in
  (* 4x growth: long simulated runs log hundreds of thousands of pauses,
     and halving the amortised per-record copy traffic matters more than
     the tail over-allocation (ints and floats only, no pointers). *)
  let ncap = if cap = 0 then 64 else cap * 4 in
  let extf col =
    let nd = Array.make ncap 0.0 in
    Array.blit col 0 nd 0 t.len;
    nd
  and exti col =
    let nd = Array.make ncap 0 in
    Array.blit col 0 nd 0 t.len;
    nd
  and exts col =
    let nd = Array.make ncap "" in
    Array.blit col 0 nd 0 t.len;
    nd
  in
  t.start_usv <- extf t.start_usv;
  t.duration_usv <- extf t.duration_usv;
  t.kindv <- exti t.kindv;
  t.collectorv <- exts t.collectorv;
  t.reasonv <- exts t.reasonv;
  t.young_beforev <- exti t.young_beforev;
  t.young_afterv <- exti t.young_afterv;
  t.old_beforev <- exti t.old_beforev;
  t.old_afterv <- exti t.old_afterv;
  t.promotedv <- exti t.promotedv;
  t.phase_endv <- exti t.phase_endv

(* 2x growth: a pause owns about eight entries, so the entry columns
   dwarf the rows and their tail over-allocation is what a long run
   keeps. *)
let[@inline never] grow_entries t =
  let cap = Array.length t.codev in
  let ncap = if cap = 0 then 256 else cap * 2 in
  let codes = Array.make ncap 0 and us = Array.make ncap 0.0 in
  Array.blit t.codev 0 codes 0 t.entries;
  Array.blit t.usv 0 us 0 t.entries;
  t.codev <- codes;
  t.usv <- us

let push_entry t code us =
  let k = t.entries in
  if k = Array.length t.codev then grow_entries t;
  Array.unsafe_set t.codev k code;
  Array.unsafe_set t.usv k us;
  t.entries <- k + 1

let phase t p us = push_entry t (phase_tag p) us
let sub t p us = push_entry t (phase_tag p lor sub_bit) us

let[@inline] first_entry t i = if i = 0 then 0 else t.phase_endv.(i - 1)

let record t ~start_us ~kind ~collector ~reason ~young_before ~young_after
    ~old_before ~old_after ~promoted =
  let i = t.len in
  if i = Array.length t.kindv then grow t;
  (* The pause lasts as long as its charged phases, added in charge order
     starting from 0.0. *)
  let duration_us = ref 0.0 in
  for k = first_entry t i to t.entries - 1 do
    if t.codev.(k) < sub_bit then duration_us := !duration_us +. t.usv.(k)
  done;
  let duration_us = !duration_us in
  (* [i] < capacity after the grow check, and every column shares it. *)
  Array.unsafe_set t.start_usv i start_us;
  Array.unsafe_set t.duration_usv i duration_us;
  Array.unsafe_set t.kindv i (kind_tag kind);
  Array.unsafe_set t.collectorv i collector;
  Array.unsafe_set t.reasonv i reason;
  Array.unsafe_set t.young_beforev i young_before;
  Array.unsafe_set t.young_afterv i young_after;
  Array.unsafe_set t.old_beforev i old_before;
  Array.unsafe_set t.old_afterv i old_after;
  Array.unsafe_set t.promotedv i promoted;
  Array.unsafe_set t.phase_endv i t.entries;
  t.len <- i + 1;
  if is_full kind then t.full_count <- t.full_count + 1;
  duration_us

let nth t i =
  {
    start_us = t.start_usv.(i);
    duration_us = t.duration_usv.(i);
    kind = kind_of_tag t.kindv.(i);
    collector = t.collectorv.(i);
    reason = t.reasonv.(i);
    young_before = t.young_beforev.(i);
    young_after = t.young_afterv.(i);
    old_before = t.old_beforev.(i);
    old_after = t.old_afterv.(i);
    promoted = t.promotedv.(i);
  }

let events t = List.init t.len (nth t)

let entries t i ~sub =
  let rec go k acc =
    if k < first_entry t i then acc
    else
      let code = t.codev.(k) in
      if Bool.equal (code >= sub_bit) sub then
        go (k - 1) ((phase_of_tag (code land (sub_bit - 1)), t.usv.(k)) :: acc)
      else go (k - 1) acc
  in
  go (t.phase_endv.(i) - 1) []

let phases t i = entries t i ~sub:false
let subs t i = entries t i ~sub:true

let entry_us t i code =
  let us = ref 0.0 in
  for k = first_entry t i to t.phase_endv.(i) - 1 do
    if t.codev.(k) = code then us := !us +. t.usv.(k)
  done;
  !us

let phase_us t i p = entry_us t i (phase_tag p)
let sub_us t i p = entry_us t i (phase_tag p lor sub_bit)

let count t = t.len

let count_full t = t.full_count

(* All pause durations, in seconds, chronological. *)
let pauses_s t = Array.init t.len (fun i -> t.duration_usv.(i) /. 1e6)

let max_pause_s t = Array.fold_left Float.max 0.0 (pauses_s t)

let intervals t =
  Array.init t.len (fun i ->
      (t.start_usv.(i) /. 1e6, (t.start_usv.(i) +. t.duration_usv.(i)) /. 1e6))

let pp_event ppf e =
  Format.fprintf ppf
    "[%10.3fs] %-12s %-14s %8.1f ms  young %d->%d  old %d->%d  promoted %d \
     (%s)"
    (e.start_us /. 1e6) e.collector
    (pause_kind_to_string e.kind)
    (e.duration_us /. 1e3) e.young_before e.young_after e.old_before
    e.old_after e.promoted e.reason
