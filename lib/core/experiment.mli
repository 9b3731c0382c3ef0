(** First-class experiment registry.

    Before this module, wiring an experiment into the repo meant a new
    [*_artifact] builder, a new entry in a hand-written assoc list, a
    hand-rolled memo ref if the experiment shared a campaign, and a new
    arm in every CLI consumer.  Now an experiment is a value: register
    it once, commit its ci-scope render as [results/ci/<id>.txt], and
    [gcperf list], [gcperf run], [gcperf all], [gcperf check-identity],
    did-you-mean suggestions and the test suite all enumerate the same
    table.

    A {e campaign} that yields several artifacts (the Xalan runs feed
    Figures 1 {e and} 2; the client runs feed Figure 5 and Tables 5-7)
    is registered once per artifact id with a shared [memo_key] and a
    runner returning every artifact of the campaign: the first id to
    run at a given scope fills the memo, its siblings read it.  Memos
    deliberately ignore [jobs] — the pool's determinism contract makes
    results byte-identical for every worker count.  The memo is an
    unsynchronised table, so {!run}, {!artifact} and {!check_golden} are
    called from the orchestrating domain only, never from a
    {!Gcperf_exec.Pool} worker. *)

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
}

val register : id:string -> title:string -> ?memo_key:string -> runner -> unit
(** Add an experiment to the registry.  Order of registration is the
    order [all]/[ids] report — [gcperf all] and [gcperf check-identity]
    run in it.  Every entry needs its committed golden,
    [results/ci/<id>.txt] (see {!check_golden}).  Raises
    [Invalid_argument] on a duplicate id. *)

val all : unit -> t list

val ids : unit -> string list

val find : string -> t option

val run : t -> scope:Scope.t -> ?jobs:int -> unit -> Artifact.t list
(** The entry's artifacts, through the campaign memo. *)

val artifact : scope:Scope.t -> ?jobs:int -> string -> Artifact.t option
(** [find] + [run] + select the artifact whose name is the id: the one
    call almost every consumer wants.  [None] for unknown ids. *)

(** {1 Golden identity} *)

val golden_dir : string
(** ["results/ci"]: resolved against the working directory, which is
    the repository root for the CLI. *)

val check_golden : ?jobs:int -> t -> (unit, string) result
(** Renders the entry's artifact at ci scope as text and compares it
    byte for byte with [results/ci/<id>.txt].  [Error] names the first
    differing line number and shows both lines, or says the golden file
    cannot be read. *)
