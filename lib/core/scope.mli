(** Run budgets.

    One record answers every "how much work" question an experiment
    asks.  Three budgets exist:

    - {!ci}: replicated counts divided by 4, virtual-time budgets by
      10, client rates by 4, grids cut to their first point.  What the
      test suite runs, and the scope of the goldens under [results/ci/].
    - [bench]: an intermediate budget for the bechamel harness and
      local iteration — counts halved, grids cut to three points.
    - {!full}: the paper's configuration, untouched.

    Every experiment runner takes [scope:t] ([run_scope]). *)

type t = private {
  label : string;
  run_divisor : int;  (** replicated runs / iterations are divided by this *)
  time_divisor : int;
      (** virtual-time budgets (server hours, preload bytes) *)
  rate_divisor : int;  (** client request rates *)
  grid_points : int option;  (** [None] = full grid; [Some n] = first n *)
}

val ci : t
val full : t

val to_string : t -> string

val of_string : string -> t option
(** Accepts "ci", "bench", "full". *)

val scaled : t -> int -> int
(** [scaled t n = max 1 (n / t.run_divisor)]. *)

val grid : t -> 'a list -> 'a list
(** First [grid_points] elements (all of them under {!full}). *)

val hours : t -> float -> float
(** Scale a virtual-time budget. *)

val bytes : t -> int -> int
(** Scale a byte budget (integer division). *)

val rate : t -> float -> float
(** Scale a request rate. *)
