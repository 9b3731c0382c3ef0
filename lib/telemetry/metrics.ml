module Vec = Gcperf_util.Vec

(* Counters live in slots numbered in registration order: [names.(i)]
   and its unboxed value [values.(i)] for [i < n].  [epoch] counts
   [clear]s, so a {!handle} knows when its cached slot has gone stale. *)
type t = {
  slots : (string, int) Hashtbl.t;
  mutable names : string array;
  mutable values : float array;
  mutable n : int;
  mutable epoch : int;
  gauges : (string, (float * float) Vec.t) Hashtbl.t;
  mutable gauge_order : string list;
}

let create () =
  {
    slots = Hashtbl.create 16;
    names = [||];
    values = [||];
    n = 0;
    epoch = 0;
    gauges = Hashtbl.create 16;
    gauge_order = [];
  }

let clear t =
  Hashtbl.reset t.slots;
  t.n <- 0;
  t.epoch <- t.epoch + 1;
  Hashtbl.reset t.gauges;
  t.gauge_order <- []

(* A new counter's value is its first [by] itself, not [0.0 +. by]: the
   two differ when [by] is [-0.0]. *)
let incr t name by =
  match Hashtbl.find_opt t.slots name with
  | Some i -> t.values.(i) <- t.values.(i) +. by
  | None ->
      let i = t.n in
      if i = Array.length t.values then begin
        let cap = Int.max 8 (2 * i) in
        let names = Array.make cap "" and values = Array.make cap 0.0 in
        Array.blit t.names 0 names 0 i;
        Array.blit t.values 0 values 0 i;
        t.names <- names;
        t.values <- values
      end;
      t.names.(i) <- name;
      t.values.(i) <- by;
      t.n <- i + 1;
      Hashtbl.add t.slots name i

let counter t name =
  match Hashtbl.find_opt t.slots name with
  | Some i -> t.values.(i)
  | None -> 0.0

let counter_names t = List.init t.n (fun i -> t.names.(i))

(* A handle finds its slot by name at its first bump after creation or
   after a [clear]: that bump is the one which registers the name, as
   [incr] would. *)
type handle = {
  owner : t;
  name : string;
  mutable slot : int;
  mutable epoch : int;
}

let handle t name = { owner = t; name; slot = 0; epoch = -1 }

let bump h by =
  let t = h.owner in
  if h.epoch = t.epoch then t.values.(h.slot) <- t.values.(h.slot) +. by
  else begin
    incr t h.name by;
    h.slot <- Hashtbl.find t.slots h.name;
    h.epoch <- t.epoch
  end

(* A handle may also learn its slot from a read, once some other writer
   has registered the name. *)
let value h =
  let t = h.owner in
  if h.epoch <> t.epoch then begin
    match Hashtbl.find_opt t.slots h.name with
    | Some i ->
        h.slot <- i;
        h.epoch <- t.epoch
    | None -> ()
  end;
  if h.epoch = t.epoch then t.values.(h.slot) else 0.0

let sample t name ~t_us v =
  let series =
    match Hashtbl.find_opt t.gauges name with
    | Some s -> s
    | None ->
        let s = Vec.create () in
        Hashtbl.add t.gauges name s;
        t.gauge_order <- name :: t.gauge_order;
        s
  in
  Vec.push series (t_us, v)

let series t name =
  match Hashtbl.find_opt t.gauges name with
  | Some s -> Vec.to_array s
  | None -> [||]

let series_names t = List.rev t.gauge_order

(* A gauge handle caches its series, found (or registered) by its first
   [observe] after creation or after a [clear]. *)
type gauge = {
  g_owner : t;
  g_name : string;
  mutable points : (float * float) Vec.t;
  mutable g_epoch : int;
}

let gauge t name =
  { g_owner = t; g_name = name; points = Vec.create (); g_epoch = -1 }

let observe g ~t_us v =
  let t = g.g_owner in
  if g.g_epoch = t.epoch then Vec.push g.points (t_us, v)
  else begin
    sample t g.g_name ~t_us v;
    g.points <- Hashtbl.find t.gauges g.g_name;
    g.g_epoch <- t.epoch
  end
