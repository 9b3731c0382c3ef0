(** Hardware model.

    The study runs on a 48-core, 4-socket, 8-NUMA-node server with 64 GB of
    RAM.  We cannot use such a machine directly, so this module captures the
    two things the paper's results actually depend on:

    - the {e topology} (how many cores, how they are grouped into NUMA
      nodes, how much memory), and
    - a {e cost model}: how long the machine takes to copy, mark, sweep and
      compact bytes, how well those operations scale when parallelised
      across cores and across NUMA nodes, how long reaching a safepoint
      takes, and what allocation costs with and without TLABs.

    All durations produced here are in {e virtual microseconds}; the
    simulator charges them to a virtual clock, so results are deterministic
    and host-independent. *)

(** {1 Topology} *)

type topology = {
  sockets : int;
  numa_nodes_per_socket : int;
  cores_per_numa_node : int;
  l1_kb : int;  (** per-core L1, split I/D like the paper's machine *)
  l2_kb : int;  (** per-core L2 *)
  l3_mb_per_node : int;
  ram_bytes : int;
}

val total_cores : topology -> int
val numa_nodes : topology -> int

(** {1 Cost model}

    Rates are single-threaded and expressed in bytes per virtual
    microsecond (1 byte/us = 1 MB/s).  Parallel phases divide work by
    {!parallel_speedup}. *)

type cost_model = {
  copy_rate : float;  (** young-gen evacuation copy, bytes/us *)
  promote_rate : float;
      (** copy into the old generation (bump pointer); slower than survivor
          copy because of remote NUMA placement *)
  promote_freelist_rate : float;
      (** promotion into a free-list old gen (CMS): slower still *)
  mark_rate : float;  (** tracing live data, bytes/us *)
  sweep_rate : float;  (** sweeping dead space, bytes/us *)
  compact_rate : float;  (** sliding compaction, bytes/us *)
  card_scan_rate : float;  (** scanning dirty cards / remsets, bytes/us *)
  root_scan_us_per_thread : float;  (** stack scan cost per mutator thread *)
  gc_fixed_us : float;  (** constant per-pause overhead *)
  safepoint_base_us : float;
  safepoint_per_thread_us : float;
      (** time-to-safepoint grows with the number of mutator threads *)
  sync_sigma : float;
      (** synchronisation overhead coefficient in the speedup law *)
  numa_remote_factor : float;
      (** extra cost factor applied to cross-node GC work; this is the
          "remote scanning / remote copying" bottleneck of Gidra et al. *)
  tlab_refill_us : float;  (** shared-pointer bump + fence on TLAB refill *)
  shared_alloc_us : float;  (** CAS path cost for a TLAB-less allocation *)
  contention_us_per_thread : float;
      (** added CAS retry cost per concurrent allocating thread *)
  locality_bytes : float;
      (** working-set size beyond which per-byte GC work degrades: once a
          phase processes much more than this, caches/TLBs/local NUMA
          memory stop covering it and remote accesses dominate, so cost
          per byte grows linearly (the reason a 50 GB full collection
          takes minutes, not seconds) *)
  satb_barrier_factor : float;
      (** mutator slowdown while a concurrent mark with an SATB write
          barrier is active (pre-write logging); multiplies the
          core-stealing factor of the concurrent workers *)
  load_barrier_factor : float;
      (** mutator slowdown while concurrent relocation is in flight and
          every reference load runs a colored-pointer-style barrier test *)
  load_barrier_slow_us : float;
      (** one load-barrier slow path: forwarding-table lookup plus the
          self-healing store remapping the referencing slot *)
  flip_fixed_us : float;
      (** fixed cost of a pauseless collector's flip safepoint; sub-ms
          pause class by construction *)
}

(** {1 Machine} *)

(** Fields are readable but the type is [private]: a machine is built
    only by {!create}, so a record update cannot carry cached speedups
    computed for another topology or cost model. *)
type t = private {
  topology : topology;
  cost : cost_model;
  gc_threads : int;  (** parallel GC worker count (JVM default: ~ cores) *)
  conc_gc_threads : int;  (** concurrent marking threads (CMS/G1) *)
  speedup_gc : float;
      (** {!parallel_speedup} at [gc_threads], cached at construction *)
  speedup_conc : float;
      (** {!parallel_speedup} at [conc_gc_threads], cached at
          construction *)
}

val create : ?gc_threads:int -> ?conc_gc_threads:int -> topology -> cost_model -> t

val cores : t -> int

(** {1 Derived quantities} *)

val parallel_speedup : t -> int -> float
(** [parallel_speedup m n] is the effective speedup of a GC phase run on
    [n] workers: [n / (1 + sigma*(n-1))], further discounted by
    {!cost_model.numa_remote_factor} once workers span NUMA nodes.  This
    reproduces the observation (Gidra et al., cited by the paper) that
    stop-the-world collectors stop scaling on multicores. *)

val time_to_safepoint : t -> mutator_threads:int -> float
(** Virtual us for all mutator threads to reach the safepoint. *)

val root_scan_us : t -> mutator_threads:int -> float

val phase_us :
  t -> rate:float -> workers:int -> bytes:int -> float
(** [phase_us m ~rate ~workers ~bytes] is the duration of a GC phase
    processing [bytes] at single-thread [rate] on [workers] workers,
    including the {!cost_model.locality_bytes} degradation for volumes
    that overwhelm the memory hierarchy. *)

val alloc_overhead_us :
  t -> tlab:bool -> threads:int -> allocations:int -> bytes:int ->
  tlab_bytes:int -> float
(** Mutator-side allocation overhead for a batch: with TLABs, one refill
    per [tlab_bytes] allocated; without, a contended shared allocation per
    object. *)

(** {1 Presets} *)

val paper_server : unit -> t
(** The study's server: 48 cores (4 sockets x 2 NUMA nodes x 6 cores),
    64 GB RAM, 1.5 MB L1 / 6 MB L2 per core, 12 MB L3 per node. *)

val paper_client : unit -> t
(** The YCSB client machine: 16 cores, 8 GB RAM. *)

val pp : Format.formatter -> t -> unit
