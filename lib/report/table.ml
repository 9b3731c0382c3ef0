module Vec = Gcperf_util.Vec

type align = Left | Right

type row = Cells of string list | Separator

type t = { columns : (string * align) list; rows : row Vec.t }

let create ~columns = { columns; rows = Vec.create () }

let add_row t cells =
  if List.length cells <> List.length t.columns then
    invalid_arg "Table.add_row: width mismatch";
  Vec.push t.rows (Cells cells)

let add_separator t = Vec.push t.rows Separator

let render t =
  let headers = List.map fst t.columns in
  let widths =
    List.mapi
      (fun i (h, _) ->
        Vec.fold
          (fun w row ->
            match row with
            | Separator -> w
            | Cells cells -> max w (String.length (List.nth cells i)))
          (String.length h) t.rows)
      t.columns
  in
  let pad align width s =
    let n = width - String.length s in
    if n <= 0 then s
    else begin
      match align with
      | Left -> s ^ String.make n ' '
      | Right -> String.make n ' ' ^ s
    end
  in
  let render_cells cells =
    let parts =
      List.map2
        (fun (s, (_, align)) w -> pad align w s)
        (List.combine cells t.columns)
        widths
    in
    String.concat "  " parts
  in
  let rule =
    String.concat "--"
      (List.map (fun w -> String.make w '-') widths)
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (render_cells headers);
  Buffer.add_char buf '\n';
  Buffer.add_string buf rule;
  Buffer.add_char buf '\n';
  Vec.iter
    (fun row ->
      (match row with
      | Separator -> Buffer.add_string buf rule
      | Cells cells -> Buffer.add_string buf (render_cells cells));
      Buffer.add_char buf '\n')
    t.rows;
  Buffer.contents buf

let cell_f ?(decimals = 2) x = Printf.sprintf "%.*f" decimals x

let cell_pct x =
  if x = 0.0 then "0.0"
  else if x >= 10.0 then Printf.sprintf "%.1f" x
  else Printf.sprintf "%.3f" x
