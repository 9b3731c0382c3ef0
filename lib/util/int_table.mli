(** Integer hash set with [Hashtbl]-identical iteration order.

    A drop-in replacement for [(int, unit) Hashtbl.t] in hot paths: same
    hash function (reimplemented without the generic-hash C call), same
    bucket-count evolution, same within-bucket ordering — therefore the
    same iteration order for any operation sequence — but monomorphic and
    free of per-binding allocation.  Simulation results depend on root-set
    iteration order, so order fidelity is load-bearing; the test suite
    checks it against [Hashtbl] on randomized operation sequences. *)

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

val remove : t -> int -> unit
(** Removes the most recently added occurrence, like [Hashtbl.remove]. *)

val iter : (int -> unit) -> t -> unit
(** Iterates in [Hashtbl.iter] order.  The table must not be modified
    during iteration. *)

val length : t -> int

val reset : t -> unit
(** Empties the table and restores its initial bucket count, like
    [Hashtbl.reset]. *)
