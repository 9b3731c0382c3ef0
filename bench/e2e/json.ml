(* Just enough JSON to read BENCHMARK.json and the benchmark's own
   reports back: the only escapes understood are a backslash before a
   quote, a backslash, a slash, n or t; numbers are read as floats. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Error of string

let parse text =
  let n = String.length text in
  let pos = ref 0 in
  let peek () = if !pos < n then text.[!pos] else '\000' in
  let rec skip () =
    match peek () with
    | ' ' | '\n' | '\r' | '\t' ->
        incr pos;
        skip ()
    | _ -> ()
  in
  let expect c =
    skip ();
    if peek () <> c then raise (Error (Printf.sprintf "expected %c at %d" c !pos));
    incr pos
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub text !pos (String.length word) = word
    then (
      pos := !pos + String.length word;
      v)
    else raise (Error (Printf.sprintf "bad literal at %d" !pos))
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> incr pos
      | '\\' ->
          let c = if !pos + 1 < n then text.[!pos + 1] else '\000' in
          Buffer.add_char b (match c with 'n' -> '\n' | 't' -> '\t' | c -> c);
          pos := !pos + 2;
          go ()
      | '\000' -> raise (Error "unterminated string")
      | c ->
          Buffer.add_char b c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let rec value () =
    skip ();
    match peek () with
    | '{' ->
        incr pos;
        skip ();
        if peek () = '}' then (
          incr pos;
          Obj [])
        else
          let rec fields acc =
            let k = string () in
            expect ':';
            let v = value () in
            skip ();
            match peek () with
            | ',' ->
                incr pos;
                fields ((k, v) :: acc)
            | '}' ->
                incr pos;
                Obj (List.rev ((k, v) :: acc))
            | _ -> raise (Error (Printf.sprintf "bad object at %d" !pos))
          in
          fields []
    | '[' ->
        incr pos;
        skip ();
        if peek () = ']' then (
          incr pos;
          Arr [])
        else
          let rec items acc =
            let v = value () in
            skip ();
            match peek () with
            | ',' ->
                incr pos;
                items (v :: acc)
            | ']' ->
                incr pos;
                Arr (List.rev (v :: acc))
            | _ -> raise (Error (Printf.sprintf "bad array at %d" !pos))
          in
          items []
    | '"' -> Str (string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ ->
        let start = !pos in
        while
          !pos < n && String.contains "+-0123456789.eE" text.[!pos]
        do
          incr pos
        done;
        (match float_of_string_opt (String.sub text start (!pos - start)) with
        | Some f -> Num f
        | None -> raise (Error (Printf.sprintf "bad value at %d" start)))
  in
  let v = value () in
  skip ();
  if !pos <> n then raise (Error "trailing data");
  v

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let read_file path = parse (In_channel.with_open_bin path In_channel.input_all)
