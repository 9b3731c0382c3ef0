type runner = scope:Scope.t -> ?jobs:int -> unit -> Artifact.t list

type t = {
  id : string;
  title : string;
  memo_key : string option;
  runner : runner;
  text : Artifact.t -> string;
}

let make ~id ~title ?memo_key ~text runner =
  { id; title; memo_key; runner; text }

(* One cache slot per (campaign, scope).  Keyed on the memo key rather
   than the experiment id so that sibling entries of a campaign (fig1 &
   fig2, fig5 & tables 5-7) share the run.  [jobs] is deliberately not
   part of the key: pool cells are pure functions of their seeds, so any
   worker count produces the same artifacts.  Find-or-compute holds
   [memo_lock], so a sibling asking from another domain waits for the
   run instead of starting it again. *)
let memo : (string * Scope.t, Artifact.t list) Hashtbl.t = Hashtbl.create 8
let memo_lock = Mutex.create ()

let run e ~scope ?jobs () =
  match e.memo_key with
  | None -> e.runner ~scope ?jobs ()
  | Some key ->
      Mutex.protect memo_lock (fun () ->
          match Hashtbl.find_opt memo (key, scope) with
          | Some arts -> arts
          | None ->
              let arts = e.runner ~scope ?jobs () in
              Hashtbl.replace memo (key, scope) arts;
              arts)

let artifact ~scope ?jobs e =
  match
    List.find_opt
      (fun (a : Artifact.t) -> a.name = e.id)
      (run e ~scope ?jobs ())
  with
  | Some a -> a
  | None -> invalid_arg (e.id ^ " yields no artifact of its own id")

type format = [ `Text | `Csv | `Json ]

let render e a = function
  | `Text -> e.text a
  | (`Csv | `Json) as f -> Artifact.render a f

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

let check_golden e a =
  let path = Filename.concat golden_dir (e.id ^ ".txt") in
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error ("cannot read golden: " ^ msg)
  | expected -> (
      match first_difference expected (e.text a) with
      | exception Invalid_argument msg ->
          Error (e.id ^ " does not render: " ^ msg)
      | None -> Ok ()
      | Some (n, g, r) ->
          Error
            (Printf.sprintf
               "%s differs at line %d\n  golden:   %s\n  rendered: %s" path n
               g r))
