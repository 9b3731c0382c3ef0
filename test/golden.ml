(* Golden checks shared by the test executables.  The test stanza's
   dependency lays the committed goldens out under the parent
   directory, which plays the repository root. *)

let repo_root = Filename.parent_dir_name

let in_dir dir f =
  let cwd = Sys.getcwd () in
  Sys.chdir dir;
  Fun.protect ~finally:(fun () -> Sys.chdir cwd) f

(* [Experiment.check_golden] on the entry's ci-scope artifact, run from
   the repository root and reported through Alcotest; returns the
   artifact.  [in_dir] changes the process-wide working directory, so
   call this from the test's own domain; to check from pool workers,
   wrap the whole map in one [in_dir] instead. *)
let check ?jobs (e : Gcperf.Experiment.t) =
  let label =
    match jobs with
    | None -> e.id ^ " matches its golden"
    | Some j -> Printf.sprintf "%s matches its golden at jobs=%d" e.id j
  in
  let a = Gcperf.Experiment.artifact ~scope:Gcperf.Scope.ci ?jobs e in
  Alcotest.(check (result unit string))
    label (Ok ())
    (in_dir repo_root (fun () -> Gcperf.Experiment.check_golden e a));
  a

let find id =
  match
    List.find_opt
      (fun (e : Gcperf.Experiment.t) -> e.id = id)
      Gcperf.Experiments.all
  with
  | Some e -> e
  | None -> Alcotest.fail ("unknown experiment " ^ id)
