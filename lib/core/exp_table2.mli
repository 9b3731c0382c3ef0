(** Table 2: benchmark stability.

    Each stable-subset benchmark is run 10 times (10 iterations each,
    baseline Java configuration, system GC between iterations) and the
    relative standard deviations of the final-iteration duration and of
    the total execution time are reported — the criteria the paper used
    to select its benchmark subset. *)

type row = {
  bench : string;
  final_rsd_pct : float;
  total_rsd_pct : float;
  runs : int;
}

type result = { rows : row list }

val run_scope :
  scope:Scope.t -> ?jobs:int -> ?all_benchmarks:bool -> unit -> result
(** [all_benchmarks] also measures the unstable benchmarks (the paper ran
    everything and then selected); default false = the Table 2 subset.
    [jobs] caps the worker-domain count for the cell fan-out (default
    {!Exp_common.default_jobs}); the result is identical for any value. *)

val render : result -> string
