(** Typed experiment artifacts.

    Every experiment produces one of these: an identified, parameterised
    set of structured rows, and nothing else.  A text renderer's only
    input is the artifact (its columns, rows and params), so the pretty
    tables, the CSV and the JSON are three views of the same rows, and a
    committed text golden pins every row field the text shows. *)

type cell = Text of string | Int of int | Float of float | Bool of bool

type t = private {
  name : string;  (** experiment id, e.g. "table2" *)
  title : string;
  params : (string * string) list;
      (** run parameters (scope, collector, benchmark, ...) *)
  columns : string list;
  rows : cell list list;  (** each row has [List.length columns] cells *)
}

type make =
  params:(string * string) list ->
  columns:string list ->
  rows:cell list list ->
  t
(** {!make} with the name and title applied: what the catalogue hands a
    runner, so a runner never writes its own id or title. *)

val make : name:string -> title:string -> make
(** @raise Invalid_argument naming the artifact and the (0-based) row
    index when a row does not have [List.length columns] cells. *)

(** {1 Reading rows}

    A renderer reads a row's cells by column name.  Each accessor
    raises [Invalid_argument] naming the artifact and the column when
    the column is missing or its cell has another type, so a row that
    loses a field its text shows fails loudly. *)

val param : t -> string -> string

val text : t -> string -> cell list -> string
val int : t -> string -> cell list -> int
val float : t -> string -> cell list -> float
val bool : t -> string -> cell list -> bool

val where : t -> string -> string -> cell list list
(** [where t column v]: the rows whose [column] holds [Text v], in
    order. *)

val distinct : t -> string -> cell list list -> string list
(** The [Text] values of [column] over [rows], each once, in first-seen
    order. *)

(** {1 Exports} *)

val render : t -> [ `Csv | `Json ] -> string
(** [`Csv] is the header then one line per row, RFC-4180 quoting (a
    cell with a comma, quote or newline is quoted) and floats as [%g];
    [`Json] is one object with the name, title, params, columns and
    rows, each finite float written with the fewest digits (15 to 17)
    that read back bit-equal, a non-finite one as a quoted [%h]. *)
