(** Plain-text table rendering for experiment output. *)

type align = Left | Right

type t

val create : columns:(string * align) list -> t

val add_row : t -> string list -> unit
(** @raise Invalid_argument if the row width does not match the header. *)

val add_separator : t -> unit

val render : t -> string
(** Monospace rendering with a header rule, suitable for terminals and
    EXPERIMENTS.md code blocks. *)

val cell_f : ?decimals:int -> float -> string
(** Float formatting helper ([decimals] defaults to 2). *)

val cell_pct : float -> string
(** Percent with 1-3 significant decimals, like the paper's tables. *)
