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
   the cold accessors. *)
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
  mutable len : int;
  mutable full_count : int;
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
    len = 0;
    full_count = 0;
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
  t.promotedv <- exti t.promotedv

let record t ~start_us ~duration_us ~kind ~collector ~reason ~young_before
    ~young_after ~old_before ~old_after ~promoted =
  let i = t.len in
  if i = Array.length t.kindv then grow t;
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
  t.len <- i + 1;
  if is_full kind then t.full_count <- t.full_count + 1

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
