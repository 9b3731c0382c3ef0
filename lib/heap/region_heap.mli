(** Region-based heap layout (G1).

    The heap is divided into equally-sized regions; any region can play the
    role of eden, survivor, old or humongous space, as in Garbage-First.
    Each region keeps a remembered set over-approximating the set of
    objects outside the region that reference into it, which is what makes
    collecting an arbitrary subset of regions possible. *)

type region_kind = Free | Eden | Survivor | Old_region | Humongous

type region = {
  idx : int;
  mutable kind : region_kind;
  mutable used : int;
  objects : Gcperf_util.Int_vec.t;
      (** ids of objects in the region; may contain stale entries *)
  remset : (int, unit) Hashtbl.t;
      (** external object ids with references into this region *)
  mutable live_bytes : int;
      (** liveness estimate from the last concurrent marking *)
  mutable hum_len : int;
      (** for the head region of a humongous group: number of regions in
          the group (including the head); 0 otherwise *)
}

type t = {
  store : Obj_store.t;
  heap_bytes : int;
  region_size : int;
  regions : region array;
  mutable current_alloc : int;  (** region currently bump-allocated, or -1 *)
  mutable free_count : int;
      (** number of [Free] regions, maintained incrementally so
          {!free_regions} is O(1) on the allocation path *)
  free_bits : Gcperf_util.Bitset.t;
      (** membership mirror of the [Free] regions; the allocator's
          lowest-index find-first is a word scan, not a table walk *)
  mutable young_used : int;  (** eden plus survivor bytes *)
  mutable old_hum_used : int;  (** old plus humongous bytes *)
  mutable total_used : int;
      (** bytes in every region.  The three totals are exact integer sums
          of the regions' [used], kept by {!add_used} and the kind
          transitions (a region's bytes move with its kind), so the
          occupancy reads are O(1) on the allocation path *)
  mutable young_target_bytes : int;
      (** eden bytes that accumulate before a young collection — the knob
          the adaptive sizing policy turns; owned by the G1 collector *)
  mutable allocated_bytes : int;
  mutable promoted_bytes : int;
  mark_list : Gcperf_util.Int_vec.t;
      (** scratch: ids marked by the current full-heap trace *)
  trace_stack : Gcperf_util.Int_vec.t;  (** scratch: trace work list *)
  movable : Gcperf_util.Int_vec.t;
      (** scratch: marked objects a relocation is about to move *)
}
(** The scratch vectors let the region collectors run allocation-free in
    steady state; their contents are only meaningful while a collection
    is in progress. *)

val create : Obj_store.t -> heap_bytes:int -> ?target_regions:int -> unit -> t
(** Region size is [heap_bytes / target_regions] (default 1024 regions),
    clamped to HotSpot's 1 MB - 32 MB range. *)

val region_of : t -> int -> region
(** The region holding the object with the given id.
    @raise Invalid_argument if the object is not region-allocated. *)

val count_kind : t -> region_kind -> int

val used_young : t -> int
(** Eden plus survivor occupancy; O(1). *)

val used_old_hum : t -> int
(** Old plus humongous occupancy; O(1). *)

val free_regions : t -> int

val heap_used : t -> int
(** Occupancy of the whole region table; O(1). *)

val add_used : t -> region -> int -> unit
(** [add_used t r delta] adds [delta] bytes to [r.used] and to the
    occupancy totals.  Every change to a region's [used] goes through
    here or through the allocation and release functions below; never
    assign [used] directly. *)

val set_young_target : t -> bytes:int -> int
(** Adjusts {!t.young_target_bytes}, clamped to [one region size, heap
    minus an evacuation reserve of max(2, regions/10) regions].  Returns
    the target actually in effect. *)

val take_free_region : t -> region_kind -> region option
(** Claims a free region for the given role. *)

val alloc_young : t -> size:int -> int option
(** Bump-allocates in the current eden region, claiming a new free region
    when the current one is full.  [None] when no free region is left
    ([size] must fit a single region; bigger objects are humongous). *)

val alloc_humongous : t -> size:int -> int option
(** Allocates a humongous object spanning [ceil(size/region_size)]
    dedicated {e contiguous} regions, as G1 requires.  [None] if no
    contiguous run of free regions is long enough. *)

val release_humongous : t -> int -> unit
(** [release_humongous t id] frees the humongous object [id] and returns
    every region of its group to the free pool. *)

val alloc_in_region : t -> region -> size:int -> int option
(** Bump allocation into a specific region (used for evacuation targets);
    [None] if it does not fit. *)

val is_humongous : t -> size:int -> bool
(** HotSpot rule: an object of more than half a region is humongous. *)

val record_store : t -> parent:int -> child:int -> unit
(** Write barrier: adds the reference and updates the target region's
    remembered set when the edge crosses regions. *)

val remove_store : t -> parent:int -> child:int -> unit

val release_region : t -> region -> unit
(** Frees every remaining object in the region and returns it to the free
    pool (the region's evacuation has completed). *)

val retire_region : t -> region -> unit
(** Returns the region to the free pool {e without} freeing its objects
    (used when a compaction has already moved them out). *)

val compact_region_objects : t -> region -> unit
(** Drops stale object ids from the region's registry. *)

val eden_regions : t -> region list

val check_invariants : t -> (unit, string) result
(** Region accounting matches object locations; regions' used bytes do not
    exceed the region size; free regions are empty; the free count and
    the occupancy totals match the region table ([Error] names the one
    that drifted, tracked against actual); the allocation region is
    eden. *)
