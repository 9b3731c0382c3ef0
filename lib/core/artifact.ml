type cell = Text of string | Int of int | Float of float | Bool of bool

type t = {
  name : string;
  title : string;
  params : (string * string) list;
  columns : string list;
  rows : cell list list;
  render_text : unit -> string;
}

let make ~name ~title ~params ~columns ~rows ~render_text =
  let width = List.length columns in
  List.iteri
    (fun i row ->
      if List.length row <> width then
        invalid_arg
          (Printf.sprintf "Artifact.make %s: row %d has %d cells, expected %d"
             name i (List.length row) width))
    rows;
  { name; title; params; columns; rows; render_text }

let cell_to_string = function
  | Text s -> s
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%g" f
  | Bool b -> string_of_bool b

let to_text t = t.render_text ()

let csv_escape s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let to_csv t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (String.concat "," (List.map csv_escape t.columns));
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      Buffer.add_string buf
        (String.concat ","
           (List.map (fun c -> csv_escape (cell_to_string c)) row));
      Buffer.add_char buf '\n')
    t.rows;
  Buffer.contents buf

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let cell_to_json = function
  | Text s -> "\"" ^ json_escape s ^ "\""
  | Int i -> string_of_int i
  | Float f ->
      if Float.is_finite f then Printf.sprintf "%.6g" f
      else "\"" ^ Printf.sprintf "%h" f ^ "\""
  | Bool b -> string_of_bool b

let to_json t =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf "{\"name\":\"%s\",\"title\":\"%s\",\"params\":{"
       (json_escape t.name) (json_escape t.title));
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v)))
    t.params;
  Buffer.add_string buf "},\"columns\":[";
  List.iteri
    (fun i c ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf ("\"" ^ json_escape c ^ "\""))
    t.columns;
  Buffer.add_string buf "],\"rows\":[";
  List.iteri
    (fun i row ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_char buf '[';
      List.iteri
        (fun j c ->
          if j > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf (cell_to_json c))
        row;
      Buffer.add_char buf ']')
    t.rows;
  Buffer.add_string buf "]}";
  Buffer.contents buf

type format = [ `Text | `Csv | `Json ]

let render t = function
  | `Text -> to_text t
  | `Csv -> to_csv t
  | `Json -> to_json t
