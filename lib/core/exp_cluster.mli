(** Cluster ring experiment: tail at scale.

    The paper's single-JVM tables stop where modern deployments start:
    a replicated kvstore ring where every client request fans out across
    many nodes, each running its own collector on its own schedule.
    Dean & Barroso's arithmetic then takes over — if one node is inside
    a stop-the-world pause a fraction [p] of the time, a request that
    must wait for [N] scattered sub-reads hits {e some} pause with
    probability [1 - (1-p)^N] — so a per-node duty cycle far below the
    99th percentile at fan-out 1 dominates p99 at fan-out 32, and the
    collector choice becomes a cluster-level decision.

    The grid is collector × ring size {4,16,64} × fan-out {1,8,32} ×
    hedging {off,on}.  Node GC timelines depend only on
    (collector, node id, scope), so they are generated once in a phase-0
    pool fan-out and shared read-only by every grid cell; each cell then
    runs one {!Gcperf_cluster.Coordinator} session as its own pool cell.
    Both phases are pure functions of fixed seeds: artifacts are
    byte-identical at any [--jobs]. *)

type cell = {
  gc : string;
  ring_size : int;
  fanout : int;
  hedged : bool;
  node_pause_pct : float;
      (** mean per-node stop-the-world duty cycle, percent *)
  summary : Gcperf_cluster.Coordinator.summary;
}

type result = {
  scope : Scope.t;
  replication : int;
  cells : cell list;
  node_ooms : int;  (** node generation runs that ended in OOM *)
}

val run_scope : scope:Scope.t -> ?jobs:int -> unit -> result

val run_grid :
  scope:Scope.t ->
  ?jobs:int ->
  ring_sizes:int list ->
  fanouts:int list ->
  unit ->
  result
(** [run_scope] with an explicit grid — the determinism tests drive a
    reduced grid through the same two-phase pool fan-out. *)

val to_artifact : Artifact.make -> result -> Artifact.t
(** One row per cell: [gc], [ring], [fanout], [hedge],
    [node_pause_pct] and the cell's
    {!Gcperf_cluster.Coordinator.summary} fields; the [replication] and
    [node_ooms] params come from the result. *)

val render : Artifact.t -> string
