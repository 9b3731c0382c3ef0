(** Umbrella: every table and figure of the study, through the registry.

    This module does two jobs.  At load time it {e registers} all
    seventeen experiments with {!Experiment} — it is the only place an
    experiment id, title or artifact builder is written down, and each
    title is written once.  To callers it is a thin facade over that
    registry, kept as the public entry point so that linking this
    module (which every consumer does) is what guarantees the
    registrations have run — OCaml links library modules lazily, so the
    registry must live behind a module callers actually reference.

    Adding experiment #18 is one registration in the implementation plus
    its committed ci-scope render, [results/ci/<id>.txt]; [gcperf list],
    [gcperf run], [gcperf all], [gcperf check-identity], did-you-mean
    and the test suite pick it up with no further wiring. *)

val all : unit -> Experiment.t list
(** Every registered experiment, in registration (= presentation)
    order. *)

val all_names : string list
(** Ids of {!all}: what {!artifact} accepts and [gcperf run] suggests
    from. *)

val artifact : scope:Scope.t -> ?jobs:int -> string -> Artifact.t option
(** Run one experiment and return its typed artifact.  Campaigns that
    feed several artifacts (Figures 1/2; Figure 5 / Tables 5-7) run
    once per scope and are shared through the registry memo.  [jobs]
    caps the worker-domain fan-out (default
    {!Exp_common.default_jobs}); any value yields the same artifact. *)
