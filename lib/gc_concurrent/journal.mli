(** mo-gc-style reference-count journal.

    Mutators append (object id, RC delta) entries; the collector folds a
    whole journal into the reference-count column at a flip.

    Determinism contract (mirrors [Obj_store.finish_relocate]'s): {!fold}
    partitions entries by id residue class, so each [rc] cell is updated
    by exactly one worker, in journal order.  The folded column is
    byte-identical at any [domains] value — including 1, the crew-refused
    fallback, and any crew size — so host-side fold parallelism
    ([--gc-jobs]) can never change simulation results.  The simulated
    fold {e duration} knob ([--journal-fold-jobs]) lives in the
    collector, not here. *)

type t

val create : unit -> t

val append : t -> int -> int -> unit
(** [append t id delta] logs one RC delta. *)

val length : t -> int
(** Entries logged (pairs, not ints). *)

val is_empty : t -> bool
val clear : t -> unit

val iter : t -> (int -> int -> unit) -> unit
(** [iter t f] calls [f id delta] in append order. *)

val fold : t -> rc:int array -> domains:int -> int
(** Applies every entry to [rc] (which must cover every id in the
    journal); returns the number of entries applied.  Does {e not} clear
    the journal. *)

val set_par_fold_threshold : int -> unit
(** Minimum entry count before {!fold} engages the crew; tests lower it
    to exercise the parallel kernel on small journals. *)

val par_fold_threshold : unit -> int
