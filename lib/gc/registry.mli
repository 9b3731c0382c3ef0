(** Collector construction by kind or name. *)

val create : Gc_ctx.t -> Gc_config.t -> Collector.t
(** Builds the collector selected by the configuration's [kind]. *)
