(** "Did you mean ...?" suggestions for CLI error messages. *)

val did_you_mean : candidates:string list -> string -> string
(** [" (did you mean a, b?)"] (at most three candidates) ready to append
    to an error message, or [""] when nothing is close. *)
