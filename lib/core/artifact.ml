type cell = Text of string | Int of int | Float of float | Bool of bool

type t = {
  name : string;
  title : string;
  params : (string * string) list;
  columns : string list;
  rows : cell list list;
}

type make =
  params:(string * string) list ->
  columns:string list ->
  rows:cell list list ->
  t

let make ~name ~title ~params ~columns ~rows =
  let width = List.length columns in
  List.iteri
    (fun i row ->
      if List.length row <> width then
        invalid_arg
          (Printf.sprintf "Artifact.make %s: row %d has %d cells, expected %d"
             name i (List.length row) width))
    rows;
  { name; title; params; columns; rows }

let param t key =
  match List.assoc_opt key t.params with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Artifact %s: no param %s" t.name key)

let cell t column row =
  let rec go cols cells =
    match (cols, cells) with
    | c :: _, v :: _ when String.equal c column -> v
    | _ :: cols, _ :: cells -> go cols cells
    | _ ->
        invalid_arg (Printf.sprintf "Artifact %s: no column %s" t.name column)
  in
  go t.columns row

let mistyped t column =
  invalid_arg
    (Printf.sprintf "Artifact %s: column %s has another type" t.name column)

let text t column row =
  match cell t column row with Text s -> s | _ -> mistyped t column

let int t column row =
  match cell t column row with Int i -> i | _ -> mistyped t column

let float t column row =
  match cell t column row with Float f -> f | _ -> mistyped t column

let bool t column row =
  match cell t column row with Bool b -> b | _ -> mistyped t column

let where t column v =
  List.filter (fun row -> String.equal (text t column row) v) t.rows

let distinct t column rows =
  List.rev
    (List.fold_left
       (fun seen row ->
         let v = text t column row in
         if List.mem v seen then seen else v :: seen)
       [] rows)

let cell_to_string = function
  | Text s -> s
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%g" f
  | Bool b -> string_of_bool b

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

(* The fewest significant digits that read back to the same bits; 17
   always do. *)
let shortest_round_trip f =
  let same s =
    Int64.equal
      (Int64.bits_of_float (float_of_string s))
      (Int64.bits_of_float f)
  in
  let s15 = Printf.sprintf "%.15g" f in
  if same s15 then s15
  else
    let s16 = Printf.sprintf "%.16g" f in
    if same s16 then s16 else Printf.sprintf "%.17g" f

let cell_to_json = function
  | Text s -> "\"" ^ json_escape s ^ "\""
  | Int i -> string_of_int i
  | Float f ->
      if Float.is_finite f then shortest_round_trip f
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

let render t = function
  | `Csv -> to_csv t
  | `Json -> to_json t
