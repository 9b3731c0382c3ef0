(** First-class experiment registry.

    Before this module, wiring an experiment into the repo meant a new
    [*_artifact] builder, a new entry in a hand-written assoc list, a
    hand-rolled memo ref if the experiment shared a campaign, and a new
    arm in every CLI consumer.  Now an experiment is a value: register
    it once and [gcperf list], [gcperf run], [gcperf all], did-you-mean
    suggestions and the test suite all enumerate the same table —
    adding experiment #16 is one {!register} call.

    A {e campaign} that yields several artifacts (the Xalan runs feed
    Figures 1 {e and} 2; the client runs feed Figure 5 and Tables 5-7)
    is registered once per artifact id with a shared [memo_key] and a
    runner returning every artifact of the campaign: the first id to
    run at a given scope fills the memo, its siblings read it.  Memos
    deliberately ignore [jobs] — the pool's determinism contract makes
    results byte-identical for every worker count — and live on the
    orchestrating domain only. *)

type runner = scope:Scope.t -> ?jobs:int -> unit -> Artifact.t list
(** Runs the experiment's campaign under a scope budget and returns its
    artifacts (singleton for most experiments).  [jobs] caps the worker
    fan-out; any value yields the same artifacts. *)

type t = private {
  id : string;  (** what [gcperf run] accepts, e.g. ["table2"] *)
  title : string;
  memo_key : string option;
      (** campaign key: entries sharing it share one memoised run *)
  golden : bool;
      (** its ci-scope text render is committed as
          [results/ci/<id>.txt] and checked by {!check_golden} *)
  runner : runner;
}

val register :
  id:string ->
  title:string ->
  ?memo_key:string ->
  ?golden:bool ->
  runner ->
  unit
(** Add an experiment to the registry.  Order of registration is the
    order [all]/[ids] report — [gcperf all] runs in it.  [golden]
    (default [false]) puts the entry in the identity gate.  Raises
    [Invalid_argument] on a duplicate id. *)

val all : unit -> t list

val goldens : unit -> t list
(** The entries registered with [~golden:true], in registration order:
    the one list of golden artifacts. *)

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
