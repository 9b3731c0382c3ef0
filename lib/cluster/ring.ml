(* Placement must be a pure function of the ring shape and the key, so
   the hash is the SplitMix64 finalizer applied directly — no generator
   state, no seed plumbing.  The top bit is cleared to keep every point
   a non-negative OCaml int, comparable with (<). *)

let mix64 x =
  let open Int64 in
  let z = mul (logxor x (shift_right_logical x 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

let hash_key k =
  Int64.to_int (Int64.logand (mix64 (Int64.of_int k)) Int64.max_int)

(* Point hashes fold the node and vnode ids through two mix rounds so
   that node i's points are unrelated to node i+1's: one round on a
   linear combination would correlate neighbours. *)
let point_hash ~node ~vnode =
  let h = mix64 (Int64.of_int ((node * 0x9e3779b9) + 0x1000000)) in
  let h = mix64 (Int64.logxor h (mix64 (Int64.of_int (vnode + 1)))) in
  Int64.to_int (Int64.logand h Int64.max_int)

type t = {
  nodes : int;
  replication : int;
  hashes : int array;  (* sorted point hashes *)
  owners : int array;  (* owners.(i) owns hashes.(i) *)
}

let nodes t = t.nodes

let create ~nodes ?(vnodes = 64) ~replication () =
  if nodes <= 0 then invalid_arg "Ring.create: nodes must be positive";
  if vnodes <= 0 then invalid_arg "Ring.create: vnodes must be positive";
  if replication <= 0 then
    invalid_arg "Ring.create: replication must be positive";
  let points = Array.make (nodes * vnodes) (0, 0) in
  for node = 0 to nodes - 1 do
    for vnode = 0 to vnodes - 1 do
      points.((node * vnodes) + vnode) <- (point_hash ~node ~vnode, node)
    done
  done;
  (* Ties (astronomically unlikely) break on node id, so the sorted
     order — and with it every placement — is total and reproducible. *)
  Array.sort
    (fun (h1, n1) (h2, n2) ->
      if h1 <> h2 then Int.compare h1 h2 else Int.compare n1 n2)
    points;
  {
    nodes;
    replication = Int.min replication nodes;
    hashes = Array.map fst points;
    owners = Array.map snd points;
  }

(* First point with hash >= h, wrapping past the top of the circle. *)
let first_point t h =
  let n = Array.length t.hashes in
  if h > t.hashes.(n - 1) then 0
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.hashes.(mid) < h then lo := mid + 1 else hi := mid
    done;
    !lo
  end

(* Walk clockwise from [start], calling [keep] on each distinct node
   until it returns false.  The walk visits every point at most once. *)
let walk t start keep =
  let n = Array.length t.hashes in
  let seen = Array.make t.nodes false in
  let continue = ref true in
  let i = ref 0 in
  while !continue && !i < n do
    let owner = t.owners.((start + !i) mod n) in
    if not seen.(owner) then begin
      seen.(owner) <- true;
      continue := keep owner
    end;
    incr i
  done

let replicas t ~key =
  let out = Array.make t.replication (-1) in
  let filled = ref 0 in
  walk t
    (first_point t (hash_key key))
    (fun node ->
      out.(!filled) <- node;
      incr filled;
      !filled < t.replication);
  (* [walk] visits every node before running out of points, and
     replication <= nodes, so the set is always complete. *)
  assert (!filled = t.replication);
  out

let primary t ~key =
  let found = ref (-1) in
  walk t
    (first_point t (hash_key key))
    (fun node ->
      found := node;
      false);
  !found

let successor t ~key ~avoid =
  let skip = ref t.replication in
  let found = ref None in
  walk t
    (first_point t (hash_key key))
    (fun node ->
      if !skip > 0 then begin
        decr skip;
        true
      end
      else if avoid node then true
      else begin
        found := Some node;
        false
      end);
  !found
