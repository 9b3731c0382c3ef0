(** Growable int vector: {!Vec} monomorphised to [int].

    The generic {!Vec} erases its element type, so even an [int Vec.t]
    pays a [caml_modify] write barrier per store and a float-array tag
    check per load.  Object-id vectors sit on the simulator's hottest
    paths (registries, free lists, per-object ref vectors, trace
    stacks); this twin compiles their accesses to plain word moves.
    The API mirrors {!Vec} minus the pieces ids never need. *)

type t

val create : ?capacity:int -> unit -> t
val length : t -> int
val is_empty : t -> bool

val get : t -> int -> int
(** Bounds-checked; raises [Invalid_argument] out of range. *)

val set : t -> int -> int -> unit
val push : t -> int -> unit

val pop : t -> int
(** Removes and returns the last element; raises on empty. *)

val unsafe_pop : t -> int
(** [pop] without the emptiness check; the caller must have already
    established the vector is non-empty. *)

val clear : t -> unit
(** Truncates to length 0 without shrinking the backing store. *)

val unsafe_get : t -> int -> int
(** No bounds check; for batch kernels that manage their own indices. *)

val unsafe_set : t -> int -> int -> unit

val truncate : t -> int -> unit
(** Shrinks to length [n] (no-op unless [0 <= n <= length]). *)

val swap_remove : t -> int -> int
(** O(1) unordered removal: moves the last element into the hole. *)

val iter : (int -> unit) -> t -> unit
val fold : ('a -> int -> 'a) -> 'a -> t -> 'a
val exists : (int -> bool) -> t -> bool
val to_list : t -> int list
val of_list : int list -> t
val filter_in_place : (int -> bool) -> t -> unit
