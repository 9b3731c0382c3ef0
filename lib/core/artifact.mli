(** Typed experiment artifacts.

    Every experiment produces one of these: an identified, parameterised
    set of structured rows plus the legacy plain-text renderer.  The
    three render targets share the same rows, so CSV and JSON exports
    can never drift from the pretty tables. *)

type cell = Text of string | Int of int | Float of float | Bool of bool

type t = private {
  name : string;  (** experiment id, e.g. "table2" *)
  title : string;
  params : (string * string) list;
      (** run parameters (scope, collector, benchmark, ...) *)
  columns : string list;
  rows : cell list list;  (** each row has [List.length columns] cells *)
  render_text : unit -> string;  (** the legacy pretty renderer *)
}

val make :
  name:string ->
  title:string ->
  params:(string * string) list ->
  columns:string list ->
  rows:cell list list ->
  render_text:(unit -> string) ->
  t
(** @raise Invalid_argument naming the artifact and the (0-based) row
    index when a row does not have [List.length columns] cells. *)

val to_text : t -> string
(** The plain-text table/figure, exactly what the string API returns. *)

type format = [ `Text | `Csv | `Json ]

val render : t -> format -> string
(** [`Csv] is the header then one line per row, RFC-4180 quoting (a
    cell with a comma, quote or newline is quoted); [`Json] is one
    object with the name, title, params, columns and rows. *)
