(** Generational heap layout (all collectors except G1).

    The heap is split into a young generation (an eden plus two survivor
    semi-spaces) and an old generation, exactly as in HotSpot.  This module
    owns the space accounting, the registries of young and old object ids,
    and the remembered set tracking old objects that hold references into
    the young generation.

    The remembered set is maintained incrementally: the store counts young
    targets per object ({!Obj_store.young_refs}, updated by the write
    barrier), and membership is one {!Gcperf_util.Int_table}, whose
    [Hashtbl] order is the card-scan order (see {!iter_dirty}).
    Like a hardware card table, a card stays dirty until a collection
    cleans it; {!refresh_cards} restores exactness after every young
    collection from the counters, and {!rebuild_cards} re-derives the set
    after a full collection.

    The record type is exposed: the collector implementations in
    [gcperf.gc] are co-designed with this module and manipulate the
    accounting directly while collecting. *)

type t = {
  store : Obj_store.t;
  heap_bytes : int;  (** total committed heap *)
  mutable young_bytes : int;  (** eden + both survivor spaces *)
  mutable eden_cap : int;
  mutable survivor_cap : int;  (** capacity of one survivor space *)
  mutable old_cap : int;
  mutable survivor_ratio : int;  (** eden/survivor ratio of the current layout *)
  mutable eden_used : int;
  mutable survivor_used : int;  (** occupancy of the from-space *)
  mutable old_used : int;
  mutable tenuring_threshold : int;
      (** collections an object must survive before promotion *)
  young_ids : Gcperf_util.Int_vec.t;
      (** ids of objects allocated young; may contain stale entries, which
          collectors filter while walking *)
  old_ids : Gcperf_util.Int_vec.t;
  cards : Gcperf_util.Int_table.t;
      (** remembered set: ids of old objects that may reference young
          ones; dead or no-longer-old entries are filtered by
          {!iter_dirty}, entries without remaining young refs stay dirty
          until the next {!refresh_cards} (card-table semantics).  Its
          [Hashtbl] order is the card-scan order, kept so simulated
          results stay bit-for-bit with the original hash-table
          remembered set *)
  mutable allocated_bytes : int;  (** cumulative bytes ever allocated *)
  mutable promoted_bytes : int;  (** cumulative bytes ever promoted *)
  mark_list : Gcperf_util.Int_vec.t;
      (** scratch: ids marked by the current trace *)
  trace_stack : Gcperf_util.Int_vec.t;  (** scratch: trace work list *)
  promote_scratch : Gcperf_util.Int_vec.t;
      (** scratch: ids picked for promotion *)
  keep_scratch : Gcperf_util.Int_vec.t;
      (** scratch: ids kept in the survivor space *)
  recheck_scratch : Gcperf_util.Int_vec.t;
      (** scratch: previous dirty entries during {!refresh_cards} *)
  mutable age_bytes : int array;
      (** scratch: surviving bytes per age, for adaptive tenuring *)
}
(** The scratch vectors let the collection algorithms run allocation-free
    in steady state; their contents are only meaningful while a collection
    is in progress. *)

val create :
  Obj_store.t ->
  heap_bytes:int ->
  young_bytes:int ->
  ?survivor_ratio:int ->
  ?tenuring_threshold:int ->
  unit ->
  t
(** [survivor_ratio] is eden/survivor as in HotSpot's [-XX:SurvivorRatio]
    (default 8, i.e. eden = 8/10 of young, each survivor space 1/10).
    @raise Invalid_argument if [young_bytes > heap_bytes]. *)

val young_used : t -> int

val heap_used : t -> int

val old_free : t -> int

val resize_young : t -> young_bytes:int -> survivor_ratio:int -> int * int
(** Moves the young/old boundary and survivor split without moving any
    object: the request is rounded up until the current eden, survivor and
    old occupancy all still fit their new capacities (and refused outright
    if no such layout exists, leaving the heap unchanged).  Returns the
    [(young_bytes, survivor_ratio)] actually in effect afterwards.  Only
    safe between collections — the adaptive sizing policy calls it at
    safepoints. *)

val alloc_eden : t -> size:int -> int option
(** Bump allocation in eden; [None] on allocation failure (eden full). *)

val alloc_eden_id : t -> size:int -> int
(** [alloc_eden] without the option: [-1] on allocation failure.  The
    per-allocation hot path uses this to avoid boxing an option per
    object. *)

val alloc_old_direct : t -> size:int -> int option
(** Direct old-generation allocation, used for objects too large for the
    young generation; [None] if the old generation cannot fit it. *)

val record_store : t -> parent:int -> child:int -> unit
(** Write barrier: adds the reference [parent -> child], bumps the
    parent's young-ref counter when [child] is young, and dirties the card
    of an old [parent] storing a young [child]. *)

val remove_store : t -> parent:int -> child:int -> unit
(** Removes one [parent -> child] reference (mutator overwrote a field);
    decrements the young-ref counter when [child] is young.  The card is
    NOT cleaned — as with a hardware card table, only collections clean
    cards ({!refresh_cards}). *)

val iter_dirty : t -> (int -> unit) -> unit
(** Iterates the remembered set's ids in hash-table bucket order, skipping dead
    and no-longer-old entries.  Entries whose young refs were since
    removed by the mutator are still visited (their scan finds nothing
    young), as with real card scanning. *)

val card_is_dirty : t -> int -> bool
(** Whether the id is a present, live, old remembered-set entry. *)

val dirty_count : t -> int
(** Number of entries {!card_is_dirty} accepts.  O(entries); test/debug
    use. *)

val dirty_live_bytes : t -> int
(** Total size of the live remembered-set entries, whatever space they now
    occupy (a dead entry's id can be recycled before the next refresh and
    is then scanned again) — the bytes a remark pause charges for card
    scanning. *)

val refresh_cards : t -> extra:Gcperf_util.Int_vec.t -> unit
(** Post-young-collection remembered-set maintenance: re-derives the
    young-ref counters of all current entries plus the [extra] candidates
    (freshly promoted objects), dropping entries without live young refs.
    Only these objects can have gained or lost young refs during a young
    collection, so this replaces any whole-heap rebuild. *)

val rebuild_cards : t -> unit
(** Post-full-collection remembered-set derivation: recomputes membership
    from the whole old registry (a full collection moves arbitrary objects
    into the old generation, so the incremental argument above does not
    apply). *)

val compact_registries : t -> unit
(** Drops stale ids from the young/old registries so their length again
    reflects the number of live objects. *)

val compact_old_ids : t -> unit
(** The old-registry half of {!compact_registries}, for collections that
    maintain the young registry themselves while sweeping. *)

val check_invariants : t -> (unit, string) result
(** Verifies space accounting against the object store: used bytes per
    space equal the sum of the sizes of the objects located there, and no
    object exceeds its space capacity.  Used by the test suite. *)
