(** Growable arrays.

    A small dynamic-array implementation used throughout the simulator for
    object tables, root sets and log buffers.  Amortised O(1) push;
    elements are stored contiguously for cache-friendly iteration. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** Fresh empty vector. *)

val make : int -> 'a -> 'a t
(** [make n x] is a vector of [n] copies of [x]. *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val get : 'a t -> int -> 'a
(** Bounds-checked access. *)

val set : 'a t -> int -> 'a -> unit

val push : 'a t -> 'a -> unit

val pop : 'a t -> 'a
(** Removes and returns the last element.  @raise Invalid_argument if
    empty. *)

val top : 'a t -> 'a
(** Last element without removing it. *)

val clear : 'a t -> unit
(** Logical clear; capacity is retained. *)

val swap_remove : 'a t -> int -> 'a
(** [swap_remove v i] removes index [i] in O(1) by moving the last element
    into its place; returns the removed element. *)

val iter : ('a -> unit) -> 'a t -> unit

val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

val to_array : 'a t -> 'a array

val to_list : 'a t -> 'a list

val of_list : 'a list -> 'a t
