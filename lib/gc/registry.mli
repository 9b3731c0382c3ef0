(** Collector construction by kind or name. *)

val create : Gc_ctx.t -> Gc_config.t -> Collector.t
(** Builds the collector selected by the configuration's [kind]. *)

val create_named : Gc_ctx.t -> string -> Gc_config.t -> Collector.t option
(** [create_named ctx name config] overrides the configuration's kind with
    the collector named [name] ("SerialGC", "cms", ...). *)

