(* Host-time ledger of one benchmark cell.

   The benchmark wraps every call it makes into a simulator layer in
   [span], so a traced run can say where host time went without
   instrumenting the library itself.  Each cell owns its ledger, so
   cells running on different pool domains never share one.  An
   untraced ledger records nothing: [span] is then a plain call and
   [count] a no-op. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type span = {
  name : string;
  layer : string;  (** the simulator module called, e.g. "vm" *)
  cell : int;
  id : int;  (** unique within the cell *)
  parent : int;  (** id of the enclosing span, -1 at top level *)
  start : float;  (** host seconds, monotonic clock *)
  stop : float;
}

type t = {
  cell : int;
  traced : bool;
  mutable spans : span list;  (** newest first *)
  mutable stack : int list;  (** ids of the open spans, innermost first *)
  mutable next_id : int;
  counts : (string, float) Hashtbl.t;
}

let create ~traced ~cell =
  {
    cell;
    traced;
    spans = [];
    stack = [];
    next_id = 0;
    counts = Hashtbl.create 8;
  }

let traced t = t.traced
let cell t = t.cell

let span t ~layer name f =
  if not t.traced then f ()
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    t.stack <- id :: t.stack;
    let start = now () in
    let close () =
      t.stack <- List.tl t.stack;
      t.spans <-
        { name; layer; cell = t.cell; id; parent; start; stop = now () }
        :: t.spans
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

let count t name v =
  if t.traced then
    Hashtbl.replace t.counts name
      (v +. Option.value ~default:0.0 (Hashtbl.find_opt t.counts name))

let spans t = List.rev t.spans

let counts t = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.counts []

(* A span's self time is its duration minus the time its direct
   children cover.  Children of one span never overlap (a cell runs on
   one domain), so their durations simply add. *)
let self_times spans =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let key = (s.cell, s.parent) in
        Hashtbl.replace child key
          (s.stop -. s.start
          +. Option.value ~default:0.0 (Hashtbl.find_opt child key)))
    spans;
  List.map
    (fun s ->
      ( s,
        s.stop -. s.start
        -. Option.value ~default:0.0 (Hashtbl.find_opt child (s.cell, s.id)) ))
    spans
