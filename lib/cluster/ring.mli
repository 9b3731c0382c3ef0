(** Consistent-hash ring with virtual nodes.

    The partitioner of the simulated cluster: every node owns [vnodes]
    points on a 63-bit hash circle, and a key's replica set is the first
    [replication] {e distinct} nodes met walking clockwise from the
    key's hash.  Placement is a pure function of [(nodes, vnodes,
    replication, key)] — no PRNG, no wall clock — so the same ring is
    rebuilt identically inside every experiment cell whatever the worker
    count.

    Virtual nodes give the two properties the placement tests pin down:

    - {e balance}: each node owns ~[1/nodes] of the circle, with spread
      shrinking as [vnodes] grows;
    - {e minimal rebalancing}: growing the ring from [n] to [n+1] nodes
      only moves keys onto the new node — a key's replica set after the
      grow is its old set with the new node possibly spliced in (and at
      most one old replica truncated off the end). *)

type t

val create : nodes:int -> ?vnodes:int -> replication:int -> unit -> t
(** [create ~nodes ~replication ()] builds the ring.  [vnodes] defaults
    to 64 points per node (Cassandra's [num_tokens] default spirit).
    [replication] is clamped to [nodes]: a 2-node ring cannot hold 3
    distinct replicas.  Raises [Invalid_argument] if [nodes <= 0],
    [vnodes <= 0] or [replication <= 0]. *)

val nodes : t -> int

val replicas : t -> key:int -> int array
(** The key's replica set: [replication] distinct node ids, primary
    first, in clockwise ring order.  A fresh array per call (callers
    mutate their routing order). *)

val primary : t -> key:int -> int
(** [replicas] head without the array allocation. *)

val successor : t -> key:int -> avoid:(int -> bool) -> int option
(** First node, continuing the clockwise walk from the key's hash {e
    past the replica set}, for which [avoid] is [false]: the hinted
    handoff target when a natural replica is down.  [None] if every
    other node is to be avoided. *)
