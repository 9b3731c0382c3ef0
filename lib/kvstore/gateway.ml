module Heapq = Gcperf_util.Heapq

type config = {
  servers : int;
  queue_capacity : int;
  shed : bool;
  fast_reject : bool;
  fast_reject_fill : int;
  reject_cost_ms : float;
}

let degraded =
  {
    servers = 24;
    queue_capacity = 256;
    shed = true;
    fast_reject = true;
    fast_reject_fill = 48;
    reject_cost_ms = 0.2;
  }

let unbounded =
  {
    degraded with
    queue_capacity = max_int;
    shed = false;
    fast_reject = false;
    fast_reject_fill = max_int;
  }

type outcome =
  | Served of { wait_ms : float; finish_s : float }
  | Shed
  | Fast_rejected

type t = {
  config : config;
  pauses : (float * float) array;
  slots : unit Heapq.t;  (* per-slot free-at times, microseconds *)
  pending : unit Heapq.t;  (* start times of waiting requests, microseconds *)
  mutable served : int;
  mutable sheds : int;
  mutable fast_rejects : int;
}

let us s = int_of_float (s *. 1e6)

let create config ~pauses =
  let slots = Heapq.create () in
  for _ = 1 to Int.max 1 config.servers do
    Heapq.push slots 0 ()
  done;
  {
    config;
    pauses;
    slots;
    pending = Heapq.create ();
    served = 0;
    sheds = 0;
    fast_rejects = 0;
  }

(* Index of the first pause whose end is after [s] (binary search; offer
   times are monotone but slot start times jump around, so a cursor is
   not enough). *)
let first_pause_ending_after t s =
  let n = Array.length t.pauses in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if snd t.pauses.(mid) <= s then lo := mid + 1 else hi := mid
  done;
  !lo

let paused t s =
  let i = first_pause_ending_after t s in
  i < Array.length t.pauses && fst t.pauses.(i) <= s

(* Push [s] past every pause that contains it: service cannot start
   while the collector holds the safepoint. *)
let rec skip_pauses t s =
  let i = first_pause_ending_after t s in
  if i < Array.length t.pauses && fst t.pauses.(i) <= s then
    skip_pauses t (snd t.pauses.(i))
  else s

(* Completion time of a service of [dur_s] starting (outside any pause)
   at [start_s]: every pause that begins before the moving finish line
   freezes the slot for its whole duration. *)
let stretch t start_s dur_s =
  let finish = ref (start_s +. dur_s) in
  let i = ref (first_pause_ending_after t start_s) in
  let n = Array.length t.pauses in
  while !i < n && fst t.pauses.(!i) < !finish do
    finish := !finish +. (snd t.pauses.(!i) -. fst t.pauses.(!i));
    incr i
  done;
  !finish

let retire_started t now_us =
  let rec loop () =
    match Heapq.min_key t.pending with
    | Some k when k <= now_us ->
        ignore (Heapq.pop t.pending);
        loop ()
    | _ -> ()
  in
  loop ()

let queue_length t ~now_s =
  retire_started t (us now_s);
  Heapq.length t.pending

let offer t ~now_s ~service_ms =
  retire_started t (us now_s);
  let waiting = Heapq.length t.pending in
  if
    t.config.fast_reject && waiting >= t.config.fast_reject_fill
    && paused t now_s
  then begin
    t.fast_rejects <- t.fast_rejects + 1;
    Fast_rejected
  end
  else if t.config.shed && waiting >= t.config.queue_capacity then begin
    t.sheds <- t.sheds + 1;
    Shed
  end
  else begin
    let free_us =
      match Heapq.pop t.slots with
      | Some (k, ()) -> k
      | None -> assert false
    in
    let start_s =
      skip_pauses t (Float.max now_s (float_of_int free_us /. 1e6))
    in
    let finish_s = stretch t start_s (service_ms /. 1e3) in
    Heapq.push t.slots (us finish_s) ();
    if start_s > now_s then Heapq.push t.pending (us start_s) ();
    t.served <- t.served + 1;
    Served { wait_ms = (start_s -. now_s) *. 1e3; finish_s }
  end

let served t = t.served
let sheds t = t.sheds
let fast_rejects t = t.fast_rejects
