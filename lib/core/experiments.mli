(** Umbrella: every table and figure of the study.

    {!all} is the catalogue: the only place an experiment id, title,
    runner or text renderer is written down, and each title is written
    once.

    Adding experiment #18 is one entry in {!all} plus its committed
    ci-scope render, [results/ci/<id>.txt]; [gcperf list], [gcperf run],
    [gcperf all], [gcperf check-identity], did-you-mean and the test
    suite pick it up with no further wiring. *)

val all : Experiment.t list
(** Every experiment, in presentation order: [gcperf all] and [gcperf
    check-identity] run in it.  Ids are unique: test_exec's
    "results/ci matches the registry" compares them with the one golden
    file per id, so a repeated id fails it. *)

val all_names : string list
(** Ids of {!all}: what {!find} accepts and [gcperf run] suggests
    from. *)

val find : string -> Experiment.t option
(** The entry with this id. *)

val artifact : scope:Scope.t -> ?jobs:int -> string -> Artifact.t option
(** Run one experiment and return its typed artifact.  Campaigns that
    feed several artifacts (Figures 1/2; Figure 5 / Tables 5-7) run
    once per scope and are shared through the campaign memo.  [jobs]
    caps the worker-domain fan-out (default
    {!Exp_common.default_jobs}); any value yields the same artifact. *)
