(** Binary min-heap keyed by [int] priorities.

    Used for the object death queue (keyed by cumulative allocated bytes)
    and for the discrete-event schedulers of [Coordinator], [Resilient]
    and [Gateway] (keyed by virtual time in microseconds).  Priorities fit
    comfortably in OCaml's 63-bit [int].

    {b Tie-order contract.}  The heap is an array-backed binary heap with
    the layout of the textbook swap heap: a push sifts up while the new
    key is strictly smaller ([<]) than its parent's; a pop moves the last
    leaf to the root and sifts it down while a child's key is strictly
    smaller, choosing the right child only when its key is strictly
    smaller than the left child's.  Every entry therefore sits in a slot
    that is a function of the push/pop sequence alone, and among equal
    keys the pop order (and the {!iter} order) is fixed by that layout.
    It is neither FIFO nor payload-ordered.

    The event loops rely on this: events due at the same microsecond are
    popped in this order, so the simulation's statistics, the committed
    goldens and the end-to-end digests all depend on it.  A change of
    implementation must reproduce the layout exactly, not just the key
    order. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> int -> 'a -> unit
(** [push q key payload] inserts with priority [key]. *)

val min_key : 'a t -> int option
(** Smallest key currently in the queue, if any. *)

val pop : 'a t -> (int * 'a) option
(** Removes and returns the minimum entry. *)

val iter : (int -> 'a -> unit) -> 'a t -> unit
(** Iterates in array (layout) order: the root first, then each level
    left to right. *)
