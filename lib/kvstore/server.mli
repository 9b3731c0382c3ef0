(** Cassandra-like in-memory NoSQL store.

    Reproduces the memory behaviour the study depends on (§2.2, §4):

    - every write appends to a {e commit log} (long-lived until the next
      flush truncates it) and installs the record in a {e memtable}
      (long-lived, referenced from index objects — the source of constant
      old-to-young reference traffic);
    - a write to an existing key makes the previous record garbage
      (tombstoned), which is what concurrent collectors reclaim;
    - when the memtable reaches the flush threshold it is flushed to
      (simulated) disk: records, index objects and commit-log segments
      all become garbage at once;
    - the {e stress configuration} sets the flush threshold and commit-log
      capacity to the heap size, so nothing is ever flushed and the server
      saturates, and can pre-load the database and replay the commit log
      at startup, exactly as the paper configures Cassandra;
    - reads allocate short-lived deserialisation buffers, which is what
      keeps the young generation churning. *)

type config = {
  record_bytes : int;  (** one record cluster (a batch of rows) *)
  read_transient_bytes : int;  (** allocation per read operation *)
  write_transient_bytes : int;  (** serialisation buffers per write *)
  zipf_theta : float;  (** key popularity skew, as in YCSB *)
  memtable_flush_bytes : int;  (** flush threshold; = heap for stress *)
  index_fanout : int;  (** records per memtable index object *)
  index_bytes : int;  (** size of one memtable/row-cache index object *)
  flush_write_s : float;  (** virtual seconds to write one flush out *)
  service_threads : int;
}

val default_config : config
(** A "default Cassandra" configuration: the Cassandra-2.0 default of a
    quarter-heap (16 GB) memtable flush threshold. *)

val stress_config : heap_bytes:int -> config
(** The paper's stress test: memtable and commit log as large as the
    heap, so everything stays in memory. *)

type t

val create : Gcperf_runtime.Vm.t -> config -> seed:int -> t

val replay_commitlog : t -> target_bytes:int -> unit
(** Startup replay: rebuilds the in-memory cache by re-executing logged
    writes until the memtable holds [target_bytes] (the stress test
    pre-loads the database this way; the clock advances as it would
    during a real replay). *)

type op = Read | Update | Insert

val perform : t -> op -> unit
(** Executes one operation against the store (allocating as described
    above; may trigger collections). *)

val run :
  t ->
  duration_s:float ->
  ops_per_s:float ->
  read_frac:float ->
  insert_frac:float ->
  unit
(** Open-loop serving for [duration_s] of virtual time.  Non-read
    operations are updates, except [insert_frac] of all operations which
    grow the key space.  Records a database-size timeline as it goes. *)

val memtable_bytes : t -> int
val commitlog_bytes : t -> int
val flushes : t -> int
val operations : t -> int

val db_size_timeline : t -> (float * int) array
(** Samples of [(virtual_s, memtable+commitlog bytes)] taken while
    running; the YCSB client uses it to model read latency growing with
    database size. *)
