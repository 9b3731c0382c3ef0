type runner = scope:Scope.t -> ?jobs:int -> unit -> Artifact.t list

type t = {
  id : string;
  title : string;
  memo_key : string option;
  runner : runner;
}

let registry : t list ref = ref []

let register ~id ~title ?memo_key runner =
  if List.exists (fun e -> e.id = id) !registry then
    invalid_arg (Printf.sprintf "Experiment.register: duplicate id %S" id);
  registry := !registry @ [ { id; title; memo_key; runner } ]

let all () = !registry

let ids () = List.map (fun e -> e.id) !registry

let find id = List.find_opt (fun e -> e.id = id) !registry

(* One cache slot per (campaign, scope).  Keyed on the memo key rather
   than the experiment id so that sibling entries of a campaign (fig1 &
   fig2, fig5 & tables 5-7) share the run.  [jobs] is deliberately not
   part of the key: pool cells are pure functions of their seeds, so any
   worker count produces the same artifacts. *)
let memo : (string * Scope.t, Artifact.t list) Hashtbl.t = Hashtbl.create 8

let run e ~scope ?jobs () =
  match e.memo_key with
  | None -> e.runner ~scope ?jobs ()
  | Some key -> (
      match Hashtbl.find_opt memo (key, scope) with
      | Some arts -> arts
      | None ->
          let arts = e.runner ~scope ?jobs () in
          Hashtbl.replace memo (key, scope) arts;
          arts)

let artifact ~scope ?jobs id =
  match find id with
  | None -> None
  | Some e ->
      List.find_opt (fun (a : Artifact.t) -> a.name = id) (run e ~scope ?jobs ())

(* --- golden identity ----------------------------------------------- *)

let golden_dir = "results/ci"

(* 1-based number and both sides of the first line where the texts
   differ; a missing line reads as "<end of file>". *)
let first_difference expected actual =
  let eof = "<end of file>" in
  let rec go n = function
    | [], [] -> None
    | g :: gs, r :: rs ->
        if String.equal g r then go (n + 1) (gs, rs) else Some (n, g, r)
    | g :: _, [] -> Some (n, g, eof)
    | [], r :: _ -> Some (n, eof, r)
  in
  go 1 (String.split_on_char '\n' expected, String.split_on_char '\n' actual)

let check_golden ?jobs e =
  let path = Filename.concat golden_dir (e.id ^ ".txt") in
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error ("cannot read golden: " ^ msg)
  | expected -> (
      match artifact ~scope:Scope.ci ?jobs e.id with
      | None -> Error (e.id ^ " yields no artifact of its own id")
      | Some a -> (
          match first_difference expected (Artifact.render a `Text) with
          | None -> Ok ()
          | Some (n, g, r) ->
              Error
                (Printf.sprintf
                   "%s differs at line %d\n  golden:   %s\n  rendered: %s" path
                   n g r)))
