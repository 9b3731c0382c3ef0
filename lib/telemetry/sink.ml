module Gc_event = Gcperf_sim.Gc_event

(* The summary grid. *)
let percentile_points = [ 50.0; 90.0; 99.0; 99.9 ]

let percentile_fields h =
  String.concat ","
    (List.map
       (fun p ->
         let label =
           if Float.is_integer p then Printf.sprintf "p%.0f" p
           else Printf.sprintf "p%g" p
         in
         Printf.sprintf "\"%s\":%.3f" label (Histogram.percentile h p))
       percentile_points)

let histogram_json ~label h =
  Printf.sprintf
    "{\"kind\":\"%s\",\"count\":%d,\"mean_us\":%.3f,%s,\"max_us\":%.3f}" label
    (Histogram.count h) (Histogram.mean h) (percentile_fields h)
    (Histogram.max h)

type summary = {
  mutable by_kind : (string * Histogram.t) list;  (* first-seen order *)
  safepoint : Histogram.t;
}

let empty () = { by_kind = []; safepoint = Histogram.create () }

let kind_histogram s kind =
  match List.assoc_opt kind s.by_kind with
  | Some h -> h
  | None ->
      let h = Histogram.create () in
      s.by_kind <- s.by_kind @ [ (kind, h) ];
      h

let summarise log =
  let s = empty () in
  for i = 0 to Gc_event.count log - 1 do
    let e = Gc_event.nth log i in
    Histogram.record
      (kind_histogram s (Gc_event.pause_kind_to_string e.Gc_event.kind))
      e.Gc_event.duration_us;
    let ttsp = Gc_event.phase_us log i Gc_event.Safepoint in
    if ttsp > 0.0 then Histogram.record s.safepoint ttsp
  done;
  s

let merged summaries =
  let into = empty () in
  List.iter
    (fun s ->
      List.iter
        (fun (kind, h) ->
          Histogram.merge_into ~into:(kind_histogram into kind) h)
        s.by_kind;
      Histogram.merge_into ~into:into.safepoint s.safepoint)
    summaries;
  into

let summary_json s =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "{\"pauses\":[";
  List.iteri
    (fun i (kind, h) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (histogram_json ~label:kind h))
    s.by_kind;
  Buffer.add_string buf "],\"safepoint\":";
  Buffer.add_string buf
    (histogram_json ~label:"time-to-safepoint" s.safepoint);
  Buffer.add_char buf '}';
  Buffer.contents buf

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let add_phase_object buf entries =
  Buffer.add_char buf '{';
  List.iteri
    (fun i (p, us) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "\"%s\":%.3f" (Gc_event.phase_to_string p) us))
    entries;
  Buffer.add_char buf '}'

let add_pause_json buf log i =
  let e = Gc_event.nth log i in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"type\":\"pause\",\"collector\":\"%s\",\"kind\":\"%s\",\"cause\":\"%s\",\"start_us\":%.3f,\"duration_us\":%.3f,\"phases\":"
       (json_escape e.Gc_event.collector)
       (json_escape (Gc_event.pause_kind_to_string e.Gc_event.kind))
       (json_escape e.Gc_event.reason) e.Gc_event.start_us
       e.Gc_event.duration_us);
  add_phase_object buf (Gc_event.phases log i);
  (match Gc_event.subs log i with
  | [] -> ()
  | subs ->
      Buffer.add_string buf ",\"sub\":";
      add_phase_object buf subs);
  Buffer.add_string buf
    (Printf.sprintf
       ",\"young_before\":%d,\"young_after\":%d,\"old_before\":%d,\"old_after\":%d,\"promoted\":%d}\n"
       e.Gc_event.young_before e.Gc_event.young_after e.Gc_event.old_before
       e.Gc_event.old_after e.Gc_event.promoted)

(* A summary line is the histogram object with a type tag in front. *)
let summary_line ~typ ~label h =
  let j = histogram_json ~label h in
  Printf.sprintf "{\"type\":\"%s\",%s}\n" typ
    (String.sub j 1 (String.length j - 2))

let trace_jsonl log =
  let buf = Buffer.create 4096 in
  for i = 0 to Gc_event.count log - 1 do
    add_pause_json buf log i
  done;
  let s = summarise log in
  List.iter
    (fun (kind, h) ->
      Buffer.add_string buf (summary_line ~typ:"summary" ~label:kind h))
    s.by_kind;
  if not (Histogram.is_empty s.safepoint) then
    Buffer.add_string buf
      (summary_line ~typ:"safepoint-summary" ~label:"time-to-safepoint"
         s.safepoint);
  Buffer.contents buf

let csv_header =
  "collector,kind,cause,start_us,duration_us,"
  ^ String.concat ","
      (List.map
         (fun p -> Gc_event.phase_to_string p ^ "_us")
         Gc_event.all_phases)
  ^ ",plan_us,move_us,young_before,young_after,old_before,old_after,promoted"

let csv_row log i =
  let e = Gc_event.nth log i in
  let cause = e.Gc_event.reason in
  let cause =
    if String.contains cause ',' then "\"" ^ cause ^ "\"" else cause
  in
  Printf.sprintf "%s,%s,%s,%.3f,%.3f,%s,%.3f,%.3f,%d,%d,%d,%d,%d"
    e.Gc_event.collector
    (Gc_event.pause_kind_to_string e.Gc_event.kind)
    cause e.Gc_event.start_us e.Gc_event.duration_us
    (String.concat ","
       (List.map
          (fun p -> Printf.sprintf "%.3f" (Gc_event.phase_us log i p))
          Gc_event.all_phases))
    (Gc_event.sub_us log i Gc_event.Plan)
    (Gc_event.sub_us log i Gc_event.Move)
    e.Gc_event.young_before e.Gc_event.young_after e.Gc_event.old_before
    e.Gc_event.old_after e.Gc_event.promoted

let pauses_csv log =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf csv_header;
  Buffer.add_char buf '\n';
  for i = 0 to Gc_event.count log - 1 do
    Buffer.add_string buf (csv_row log i);
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

let metrics_csv t =
  let m = Telemetry.metrics t in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "series,t_us,value\n";
  List.iter
    (fun name ->
      Array.iter
        (fun (t_us, v) ->
          Buffer.add_string buf (Printf.sprintf "%s,%.3f,%.6g\n" name t_us v))
        (Metrics.series m name))
    (Metrics.series_names m);
  List.iter
    (fun name ->
      Buffer.add_string buf
        (Printf.sprintf "%s,,%.6g\n" name (Metrics.counter m name)))
    (Metrics.counter_names m);
  Buffer.contents buf
