(** First-class experiments.

    An experiment is a value: an id, a title, a runner and a text
    renderer, listed once in {!Experiments.all} with its ci-scope render
    committed as [results/ci/<id>.txt].  [gcperf list], [gcperf run],
    [gcperf all], [gcperf check-identity], did-you-mean suggestions and
    the test suite all enumerate that one list.

    A {e campaign} that yields several artifacts (the Xalan runs feed
    Figures 1 {e and} 2; the client runs feed Figure 5 and Tables 5-7)
    becomes one entry per artifact id with a shared [memo_key] and a
    runner returning every artifact of the campaign: the first id to
    run at a given scope fills the memo, its siblings read it.  Memos
    deliberately ignore [jobs] — the pool's determinism contract makes
    results byte-identical for every worker count.  The memo is guarded
    by a mutex held across find-or-compute, so {!run}, {!artifact} and
    {!check_golden} may be called from any domain, {!Gcperf_exec.Pool}
    workers included: a sibling that asks while its campaign is running
    waits for that run rather than starting a second one. *)

type runner = scope:Scope.t -> ?jobs:int -> unit -> Artifact.t list
(** Runs the experiment's campaign under a scope budget and returns its
    artifacts (singleton for most experiments).  [jobs] caps the worker
    fan-out; any value yields the same artifacts. *)

type t = private {
  id : string;  (** what [gcperf run] accepts, e.g. ["table2"] *)
  title : string;
  memo_key : string option;
      (** campaign key: entries sharing it share one memoised run *)
  runner : runner;
  text : Artifact.t -> string;
      (** the pretty table or figure, read from the artifact alone *)
}

val make :
  id:string ->
  title:string ->
  ?memo_key:string ->
  text:(Artifact.t -> string) ->
  runner ->
  t
(** An entry.  Every entry needs its committed golden,
    [results/ci/<id>.txt] (see {!check_golden}). *)

val run : t -> scope:Scope.t -> ?jobs:int -> unit -> Artifact.t list
(** The entry's artifacts, through the campaign memo. *)

val artifact : scope:Scope.t -> ?jobs:int -> t -> Artifact.t
(** {!run}, then select the artifact whose name is the entry's id.
    @raise Invalid_argument if the runner yields none (a catalogue
    error). *)

type format = [ `Text | `Csv | `Json ]

val render : t -> Artifact.t -> format -> string
(** [`Text] is the entry's renderer; [`Csv] and [`Json] are
    {!Artifact.render}. *)

(** {1 Golden identity} *)

val golden_dir : string
(** ["results/ci"]: resolved against the working directory, which is
    the repository root for the CLI. *)

val check_golden : t -> Artifact.t -> (unit, string) result
(** Renders the entry's artifact (run at ci scope) as text and compares
    it byte for byte with [results/ci/<id>.txt].  [Error] names the
    first differing line number and shows both lines, says the golden
    file cannot be read, or carries the renderer's complaint about a
    missing or mistyped column. *)
