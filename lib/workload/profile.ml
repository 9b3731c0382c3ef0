type threading = Single | Per_hw_thread | Fixed of int

type size_class = { mean_bytes : int; sigma : float }

type lifetime_mix = {
  short_frac : float;
  short_mean_bytes : float;
  medium_frac : float;
  medium_mean_bytes : float;
  iteration_frac : float;
  permanent_frac : float;
}

type t = {
  name : string;
  threading : threading;
  iteration_alloc_bytes : int;
  iteration_cpu_s : float;
  size : size_class;
  lifetime : lifetime_mix;
  startup_live_bytes : int;
  ref_locality : float;
  update_store_prob : float;
  phase_noise : float;
  sawtooth : int;
}

let threads_for t ~hw_threads =
  match t.threading with
  | Single -> 1
  | Per_hw_thread -> hw_threads
  | Fixed n -> Int.max 1 n

let validate t =
  let l = t.lifetime in
  let total =
    l.short_frac +. l.medium_frac +. l.iteration_frac +. l.permanent_frac
  in
  if total > 1.0 +. 1e-9 then
    Error (Printf.sprintf "%s: lifetime fractions sum to %.3f > 1" t.name total)
  else if
    l.short_frac < 0.0 || l.medium_frac < 0.0 || l.iteration_frac < 0.0
    || l.permanent_frac < 0.0
  then Error (t.name ^ ": negative lifetime fraction")
  else if t.iteration_alloc_bytes <= 0 then
    Error (t.name ^ ": empty iteration allocation")
  else if t.iteration_cpu_s <= 0.0 then Error (t.name ^ ": zero cpu time")
  else if t.size.mean_bytes <= 0 then Error (t.name ^ ": empty size class")
  else if t.ref_locality < 0.0 || t.ref_locality > 1.0 then
    Error (t.name ^ ": ref_locality out of range")
  else if t.update_store_prob < 0.0 || t.update_store_prob > 1.0 then
    Error (t.name ^ ": update_store_prob out of range")
  else Ok ()
