(* smoke_check.exe BENCHMARK.json E2E_EXE

   Runs every workload BENCHMARK.json names through E2E_EXE at ci scope,
   traced, and checks that each run is correct and that its --json
   report carries every metric BENCHMARK.json names, end-to-end and
   per-layer. *)

let strings key section bench =
  match Json.member section bench with
  | Some (Json.Arr items) ->
      List.filter_map
        (fun m -> match Json.member key m with Some (Json.Str n) -> Some n | _ -> None)
        items
  | _ -> failwith ("BENCHMARK.json has no " ^ section)

let run_workload e2e name =
  let report = Filename.temp_file ("e2e-smoke-" ^ name) ".json" in
  let args = [| e2e; "--workload"; name; "--scope"; "ci"; "--trace"; "1"; "--json"; report |] in
  let status =
    Out_channel.with_open_bin Filename.null (fun null ->
        let pid = Unix.create_process e2e args Unix.stdin (Unix.descr_of_out_channel null) Unix.stderr in
        Unix.waitpid [] pid)
  in
  let r = match status with _, Unix.WEXITED 0 -> Some (Json.read_file report) | _ -> None in
  Sys.remove report;
  r

let () =
  match Sys.argv with
  | [| _; bench; e2e |] ->
      let e2e = if Filename.is_implicit e2e then Filename.concat Filename.current_dir_name e2e else e2e in
      let bench = Json.read_file bench in
      let wanted = strings "name" "end_to_end" bench @ strings "name" "per_layer" bench in
      let bad = ref 0 in
      let fail fmt = Printf.ksprintf (fun s -> print_endline s; incr bad) fmt in
      List.iter
        (fun name ->
          match run_workload e2e name with
          | None -> fail "%s: e2e.exe failed" name
          | Some r ->
              if Json.member "correct" r <> Some (Json.Bool true) then fail "%s: not correct" name;
              let metrics = Option.value ~default:Json.Null (Json.member "metrics" r) in
              List.iter
                (fun m ->
                  match Json.member m metrics with
                  | Some v when Json.member "value" v <> None -> ()
                  | _ -> fail "%s: missing metric %s" name m)
                wanted)
        (strings "name" "workloads" bench);
      Printf.printf "bench-e2e-smoke: %d metrics per workload: %s\n" (List.length wanted)
        (if !bad = 0 then "ok" else "FAIL");
      if !bad > 0 then exit 1
  | _ ->
      prerr_endline "usage: smoke_check.exe BENCHMARK.json E2E_EXE";
      exit 2
