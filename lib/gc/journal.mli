(** mo-gc-style reference-count journal.

    Mutators append (object id, RC delta) entries; the collector folds a
    whole journal into the reference-count column at a flip.

    {!fold} is one in-order pass on the calling domain.  The simulated
    fold {e duration} knob ([--journal-fold-jobs]) lives in the
    collector, not here. *)

type t

val create : unit -> t

val append : t -> int -> int -> unit
(** [append t id delta] logs one RC delta, packed into one word.
    @raise Invalid_argument when [delta] is outside [-1, 1]. *)

val length : t -> int
(** Entries logged (one per {!append}). *)

val clear : t -> unit

val iter : t -> (int -> int -> unit) -> unit
(** [iter t f] calls [f id delta] in append order. *)

val fold : t -> rc:int array -> int
(** Applies every entry to [rc] (which must cover every id in the
    journal) in append order; returns the number of entries applied.
    Does {e not} clear the journal. *)
