(** Integer hash set with [Hashtbl]-identical iteration order.

    The one structure in the simulator that reproduces [Hashtbl] order,
    standing in for an [(int, unit) Hashtbl.t] with the same hash
    function (reimplemented without the generic-hash C call), the same
    bucket-count evolution and the same within-bucket ordering —
    therefore the same iteration order for any operation sequence — but
    monomorphic and free of per-binding allocation.  An empty table is no
    larger than the [Hashtbl] of the same creation size.

    Three sets use it, and each one's iteration order feeds a trace:
    the mutator root sets ([Vm]), the dirty cards of the generational
    heap ([Gen_heap]) and G1's per-region remembered sets
    ([Region_heap]).  Simulation results depend on those orders, so
    order fidelity is load-bearing; the test suite checks it against
    [Hashtbl] on randomized operation sequences. *)

type t

val hash_int : int -> int
(** [Hashtbl.hash] on an [int], bit-for-bit. *)

val create : int -> t
(** [create n] sizes the table like [Hashtbl.create n]. *)

val add : t -> int -> unit
(** Unconditional insert at the bucket head, like [Hashtbl.add].  Adding
    a key twice shadows (and double-counts) it — callers insert fresh
    keys only, or go through {!replace}. *)

val replace : t -> int -> unit
(** Insert unless present, like [Hashtbl.replace] on a unit table. *)

val mem : t -> int -> bool

val remove : t -> int -> unit
(** Removes the most recently added occurrence, like [Hashtbl.remove]. *)

val iter : (int -> unit) -> t -> unit
(** Iterates in [Hashtbl.iter] order.  The table must not be modified
    during iteration: collect the keys to drop, then remove them. *)

val length : t -> int

val reset : t -> unit
(** Empties the table and restores its initial bucket count, like
    [Hashtbl.reset]. *)
