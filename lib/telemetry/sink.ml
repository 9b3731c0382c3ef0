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

let summary_json t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "{\"pauses\":[";
  List.iteri
    (fun i kind ->
      match Telemetry.pause_histogram t kind with
      | None -> ()
      | Some h ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf (histogram_json ~label:kind h))
    (Telemetry.kinds t);
  Buffer.add_string buf "],\"safepoint\":";
  Buffer.add_string buf
    (histogram_json ~label:"time-to-safepoint" (Telemetry.safepoint_histogram t));
  Buffer.add_char buf '}';
  Buffer.contents buf

let trace_jsonl t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun span ->
      Buffer.add_string buf (Span.to_json span);
      Buffer.add_char buf '\n')
    (Telemetry.spans t);
  List.iter
    (fun kind ->
      match Telemetry.pause_histogram t kind with
      | None -> ()
      | Some h ->
          let j = histogram_json ~label:kind h in
          Buffer.add_string buf
            (Printf.sprintf "{\"type\":\"summary\",%s}\n"
               (String.sub j 1 (String.length j - 2))))
    (Telemetry.kinds t);
  let sp = Telemetry.safepoint_histogram t in
  if not (Histogram.is_empty sp) then
    Buffer.add_string buf
      (Printf.sprintf "{\"type\":\"safepoint-summary\",%s}\n"
         (let j = histogram_json ~label:"time-to-safepoint" sp in
          String.sub j 1 (String.length j - 2)));
  Buffer.contents buf

let spans_csv t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf Span.csv_header;
  Buffer.add_char buf '\n';
  List.iter
    (fun span ->
      Buffer.add_string buf (Span.to_csv_row span);
      Buffer.add_char buf '\n')
    (Telemetry.spans t);
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
