(** Table 8: qualitative summary — advantages and disadvantages of the
    three main collectors.

    Unlike the paper's hand-written table, this one is {e derived} from
    measurements: throughput verdicts come from total DaCapo execution
    times relative to the best collector, pause verdicts from the maximum
    stop-the-world pause observed, on both the benchmark campaign and the
    key-value-server campaign. *)

type verdict = Good | Fairly_good | Bad

type pause_verdict = Short | Acceptable | Significant | Unacceptable

val verdict_to_string : verdict -> string
val pause_verdict_to_string : pause_verdict -> string

val classify_throughput : float -> verdict
(** From time relative to the best (1.0 = best). *)

val classify_pause : max_pause_s:float -> server:bool -> pause_verdict

val run_scope :
  Artifact.make -> scope:Scope.t -> ?jobs:int -> unit -> Artifact.t
(** One row per (collector, experiment): [gc], [experiment] ("DaCapo"
    or "Cassandra"), the [throughput] and [pause] verdicts, and the
    [total_rel] (total time relative to the best collector) and
    [max_pause_s] they were read from. *)

val render : Artifact.t -> string
