(** Table 8: qualitative summary — advantages and disadvantages of the
    three main collectors.

    Unlike the paper's hand-written table, this one is {e derived} from
    measurements: throughput verdicts come from total DaCapo execution
    times relative to the best collector, pause verdicts from the maximum
    stop-the-world pause observed, on both the benchmark campaign and the
    key-value-server campaign. *)

type verdict = Good | Fairly_good | Bad

type pause_verdict = Short | Acceptable | Significant | Unacceptable

type entry = {
  gc : string;
  experiment : string;  (** "DaCapo" or "Cassandra" *)
  throughput : verdict;
  pause : pause_verdict;
  total_rel : float;  (** total time relative to the best collector *)
  max_pause_s : float;
}

type result = { entries : entry list }

val verdict_to_string : verdict -> string
val pause_verdict_to_string : pause_verdict -> string

val classify_throughput : float -> verdict
(** From time relative to the best (1.0 = best). *)

val classify_pause : max_pause_s:float -> server:bool -> pause_verdict

val run_scope : scope:Scope.t -> ?jobs:int -> unit -> result

val render : result -> string
