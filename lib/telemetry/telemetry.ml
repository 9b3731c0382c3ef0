type t = { enabled : bool; metrics : Metrics.t }

(* The process-wide default is read from every domain that creates a VM
   (experiment cells run under Gcperf_exec.Pool), so it is an atomic; it
   is only ever written from the main domain before a campaign starts. *)
let default = Atomic.make false
let set_default_enabled b = Atomic.set default b
let default_enabled () = Atomic.get default

let create ?enabled () =
  let enabled =
    match enabled with Some b -> b | None -> Atomic.get default
  in
  { enabled; metrics = Metrics.create () }

(* Eager, not lazy: a racy [Lazy.force] from two domains raises
   [CamlinternalLazy.Undefined], and the disabled registry is cheap. *)
let disabled_instance = create ~enabled:false ()
let disabled () = disabled_instance

let enabled t = t.enabled

let incr t name by = if t.enabled then Metrics.incr t.metrics name by

let metrics t = t.metrics
let clear t = Metrics.clear t.metrics
