module Prng = Gcperf_util.Prng
module Stats = Gcperf_stats.Stats
module Histogram = Gcperf_telemetry.Histogram

type op_kind = Read | Update

type point = {
  time_s : float;
  kind : op_kind;
  latency_ms : float;
  gc_correlated : bool;
}

type workload = {
  read_frac : float;
  ops_per_s : float;
  duration_s : float;
  read_base_ms : float;
  read_step_ms : float;
  read_step_bytes : int;
  update_base_ms : float;
  jitter_sigma : float;
  drain_factor : float;
}

let paper_workload =
  {
    read_frac = 0.5;
    ops_per_s = 150.0;
    duration_s = 7200.0;
    read_base_ms = 0.9;
    read_step_ms = 0.55;
    read_step_bytes = 8 * 1024 * 1024 * 1024;
    update_base_ms = 0.85;
    jitter_sigma = 0.18;
    drain_factor = 0.25;
  }

(* Database size at time [t]: the last sample at or before [t], found by
   binary search for the largest index whose timestamp is <= t. *)
let db_bytes_at timeline t =
  let n = Array.length timeline in
  if n = 0 || t < fst timeline.(0) then 0
  else begin
    let rec search lo hi =
      (* invariant: fst timeline.(lo) <= t < fst timeline.(hi+1) *)
      if lo >= hi then lo
      else begin
        let mid = (lo + hi + 1) / 2 in
        if fst timeline.(mid) <= t then search mid hi else search lo (mid - 1)
      end
    in
    snd timeline.(search 0 (n - 1))
  end

(* GC delay for an arrival at [t]: caught inside a pause, the request
   waits for the pause end; shortly after a pause, it queues behind the
   accumulated backlog that is still draining. *)
let gc_delay_s pauses ~drain_factor t =
  let n = Array.length pauses in
  let rec search lo hi =
    if lo > hi then None
    else begin
      let mid = (lo + hi) / 2 in
      let start_s, end_s = pauses.(mid) in
      let drain_end = end_s +. (drain_factor *. (end_s -. start_s)) in
      if t < start_s then search lo (mid - 1)
      else if t > drain_end then search (mid + 1) hi
      else Some (start_s, end_s, drain_end)
    end
  in
  match search 0 (n - 1) with
  | None -> None
  | Some (_start_s, end_s, drain_end) ->
      if t <= end_s then
        (* Stalled for the rest of the pause, plus its slice of the
           backlog drain. *)
        Some ((end_s -. t) +. (0.3 *. (drain_end -. end_s)))
      else
        (* The pause is over but the backlog is still draining: the
           residual delay decays linearly. *)
        Some
          ((drain_end -. t) /. Float.max 1e-9 (drain_end -. end_s)
          *. (drain_end -. end_s) *. 0.5)

let run w ~pauses ~db_timeline ~seed =
  let prng = Prng.create seed in
  let points = ref [] in
  let t = ref 0.0 in
  let jitter () =
    if w.jitter_sigma <= 0.0 then 1.0
    else
      Prng.lognormal prng
        ~mu:(-.(w.jitter_sigma *. w.jitter_sigma) /. 2.0)
        ~sigma:w.jitter_sigma
  in
  while !t < w.duration_s do
    t := !t +. Prng.exponential prng (1.0 /. w.ops_per_s);
    if !t < w.duration_s then begin
      let kind = if Prng.chance prng w.read_frac then Read else Update in
      let base_ms =
        match kind with
        | Read ->
            let db = db_bytes_at db_timeline !t in
            w.read_base_ms
            +. (w.read_step_ms *. float_of_int (db / w.read_step_bytes))
        | Update -> w.update_base_ms
      in
      let service_ms = base_ms *. jitter () in
      let delay_s = gc_delay_s pauses ~drain_factor:w.drain_factor !t in
      let latency_ms, gc_correlated =
        match delay_s with
        | None -> (service_ms, false)
        | Some d -> (service_ms +. (d *. 1e3), true)
      in
      points := { time_s = !t; kind; latency_ms; gc_correlated } :: !points
    end
  done;
  Array.of_list (List.rev !points)

let report points ~kind =
  let selected =
    Array.of_list
      (List.filter_map
         (fun p ->
           if p.kind = kind then Some (p.latency_ms, p.gc_correlated) else None)
         (Array.to_list points))
  in
  Stats.latency_report selected
