(** Simulated object store, struct-of-arrays layout.

    Every simulated heap object lives in this arena, identified by a
    dense integer id.  Attributes are parallel unboxed int-array columns
    (size, location code packed with age, mark epoch, young-ref count)
    and outgoing references are CSR slices — per-object offset and
    packed length/capacity into one shared edge arena — so the
    collectors' hot loops are linear walks over flat int arrays with no
    per-object boxing or pointer chasing.

    An object here stands for a {e cluster} of real Java objects
    allocated together (see DESIGN.md §6, "scale factor"): sizes are real
    bytes, so a 64 GB heap holds on the order of 10^5 clusters instead of
    10^9 objects, while tracing, copying and promotion still operate on a
    genuine object graph. *)

type location =
  | Eden
  | Survivor
  | Old
  | Region of int  (** G1 region index *)
  | Nowhere  (** free slot *)

type t

val create : unit -> t

(** {1 Per-object attributes}

    Accessors index the columns directly: only the array bounds check
    runs, no liveness check.  Ids recorded in registries, root sets and
    reference slices were validated when recorded, and the slot table
    never shrinks.  A freed slot reads as [Nowhere]. *)

val size : t -> int -> int

val age : t -> int -> int
(** Collections survived, as last set by a relocation plan; 0 at
    allocation.  Always in [0, {!max_age}]. *)

val max_age : int
(** The largest age the packed location word holds (31).  Young ages
    stop at the tenuring threshold (at most 15); a collector that keeps
    ageing tenured objects saturates at this bound. *)

val loc : t -> int -> location
(** Decoded location.  Allocates for [Region _]; hot paths should use the
    predicates instead. *)

val young_refs : t -> int -> int
(** Outgoing references currently targeting a young-space object;
    maintained by {!add_ref}/{!remove_ref}/{!set_refs} and re-derived by
    collectors via {!recount_young_refs} after objects move. *)

val is_young : t -> int -> bool
val is_old : t -> int -> bool
val is_nowhere : t -> int -> bool

val region_index : t -> int -> int
(** The object's G1 region index, or [-1] when not region-allocated. *)

val in_region : t -> int -> int -> bool
(** [in_region t id idx] — whether the object sits in region [idx]. *)

(** {1 Epoch-stamped marks} *)

val begin_trace : t -> unit
(** Starts a new trace epoch.  Marks from earlier traces become stale
    implicitly — there is no clearing pass. *)

val mark : t -> int -> unit
(** Stamps the object with the current trace epoch. *)

val is_marked : t -> int -> bool
(** Whether the object was marked during the current trace epoch. *)

(** {1 Allocation} *)

val alloc : t -> size:int -> loc:location -> int
(** Allocates a fresh object (recycling a free slot when possible) and
    returns its id.  The object starts with age 0, unmarked, no refs.
    @raise Invalid_argument when [loc] is [Nowhere]. *)

val alloc_region : t -> size:int -> region:int -> int
(** [alloc] into a G1 region without boxing a [Region] constructor. *)

val check_live : t -> int -> unit
(** @raise Invalid_argument on a stale or out-of-range id. *)

val is_live : t -> int -> bool
(** Whether the id denotes a currently-allocated object. *)

val free : t -> int -> unit
(** Returns the object's slot to the free pool.  The id becomes stale.
    Raises [Invalid_argument] on an id that is already free. *)

(** {1 References}

    Outgoing references are CSR slices in the shared edge arena.  A slice
    grows by relocating to the arena's bump end; when the arena fills it
    is rebuilt tight (compacting relocation garbage) at twice the live
    size.  Rebuilds happen only inside these mutator-facing operations,
    never during a trace. *)

val add_ref : t -> from:int -> to_:int -> unit

val remove_ref : t -> from:int -> to_:int -> unit
(** Removes one occurrence in O(found position) by swapping with the last
    entry; no-op if absent.  Reference order is not preserved. *)

val set_refs : t -> int -> int array -> unit
(** Replaces the object's references.  The array is copied; an
    allocation-free overwrite for callers that already hold an array. *)

val clear_refs : t -> int -> unit
(** Drops all outgoing references ([set_refs t id [||]] without the
    array). *)

val ref_count : t -> int -> int

val ref_at : t -> int -> int -> int
(** [ref_at t id i] — the [i]th outgoing reference.  Unchecked beyond the
    arena bounds; pair with {!ref_count}. *)

val iter_refs : t -> int -> (int -> unit) -> unit

val refs_list : t -> int -> int list
(** The reference slice, in reference order. *)

val recount_young_refs : t -> int -> unit
(** Recomputes the young-ref counter from the object's current references
    and their targets' current locations (dead targets count as
    not-young). *)

(** {1 Live-id iteration}

    A scan of the slot table in id order: O(capacity), where the capacity
    is the peak live count (freed slots are recycled first).  No per-slot
    live list is kept. *)

val live_count : t -> int

val live_ids : t -> Gcperf_util.Int_vec.t
(** Ids of all live objects, ascending, as a fresh vector. *)

val iter_live : t -> (int -> unit) -> unit
(** Iterates live ids in ascending order (the order downstream
    remembered-set rebuilds depend on).  The callback must not allocate
    or free objects. *)

val capacity : t -> int
(** Total slots ever allocated (live + recyclable). *)

(** {1 Trace kernel}

    [sequential_finish] runs a seeded trace to closure: pop a vertex,
    scan its references, mark/push unmarked children admitted by the
    predicate.  Every artifact downstream depends on this exact discovery
    order, and it is the only trace path. *)

type trace_pred =
  | Trace_young  (** admit young objects (eden or survivor) *)
  | Trace_live  (** admit everything allocated *)
  | Trace_regions of bool array
      (** admit objects in the flagged G1 regions *)

val sequential_finish :
  t ->
  pred:trace_pred ->
  marked:Gcperf_util.Int_vec.t ->
  stack:Gcperf_util.Int_vec.t ->
  unit
(** [stack] holds the seeds (already marked, already in [marked]); on
    return it is empty and [marked] holds the closure in discovery
    order. *)

val set_default_gc_domains : int -> unit
(** No-op.  Every heap kernel (the relocation move, the edge-arena
    rebuild) runs sequentially on the calling domain; this entry point
    remains only so that existing callers that pass a host domain count
    keep compiling. *)

(** {1 Relocation kernel}

    [finish_relocate] is the move half of a two-phase relocation.
    Phase A (plan): the collector
    walks survivors in deterministic trace order and records each
    object's destination location and age with the [plan_push] family —
    placement decisions (bump-packing, budgets, registry pushes, used
    accounting) are inherently ordered and stay in the collector.
    Phase B (move): the kernel applies the recorded writes to the
    location column (which carries the age) in one pass, in plan
    order. *)

val plan_clear : t -> unit
(** Drops any pending plan entries (a plan survives only until the next
    {!finish_relocate}). *)

val plan_length : t -> int
(** Number of pending plan entries. *)

val plan_push : t -> int -> loc:location -> age:int -> unit
(** Records one relocation: on {!finish_relocate} the object's location
    becomes [loc] and its age [age].
    @raise Invalid_argument when [age] is outside [0, {!max_age}]. *)

val plan_push_old : t -> int -> age:int -> unit

val plan_push_survivor : t -> int -> age:int -> unit

val plan_push_eden : t -> int -> age:int -> unit

val plan_push_region : t -> int -> region:int -> age:int -> unit
(** Allocation-free variants of {!plan_push} for the hot plan loops. *)

val finish_relocate : t -> int
(** Applies and clears the pending plan; returns the number of objects
    relocated. *)

(** {1 Batch sweep kernels}

    Column-direct equivalents of the collectors' per-object free loops.
    Visit order and free order — hence the free-slot recycling order the
    goldens depend on — are exactly those of a closure-per-id loop over
    the same vector. *)

val sweep_young_registry : t -> Gcperf_util.Int_vec.t -> int
(** Young-collection sweep over a young registry: keeps young+marked ids
    (in place, order preserved), frees young+unmarked ids, drops ids no
    longer young (promoted).  Returns the freed byte count. *)

val sweep_dead : t -> Gcperf_util.Int_vec.t -> int
(** Full-collection sweep: frees every still-allocated unmarked id in the
    vector, leaving the vector itself untouched.  Returns the freed byte
    count. *)

(** {1 Forwarding table (pauseless concurrent relocation)}

    Per-object forwarding entries with self-healing load-barrier reads,
    for the concurrent region collector.  Entries are epoch-stamped
    words, one per slot:
    {!fwd_begin} opens a relocation phase and invalidates the previous
    table in O(1); {!fwd_record} marks an object as moved this phase;
    {!fwd_read} is the mutator's load barrier — the {e first} read of a
    forwarded object takes the slow path, heals the entry and returns
    [true]; every later read of the same object returns [false]
    (remapped slots never hit the forwarding table twice).
    {!fwd_heal_all} is the remap flip: heals everything still pending. *)

val fwd_begin : t -> unit
val fwd_record : t -> int -> unit

val fwd_read : t -> int -> bool
(** Load barrier: heals on first contact, [true] iff this read took the
    slow path. *)

val fwd_pending : t -> int
(** Entries recorded this phase and not yet healed. *)

val fwd_heal_all : t -> int
(** Heals every pending entry; returns how many were left for the flip
    (i.e. never touched by a mutator read). *)
