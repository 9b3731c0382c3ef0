type phase =
  | Safepoint
  | Root_scan
  | Card_scan
  | Mark
  | Copy
  | Promote
  | Sweep
  | Compact
  | Region_overhead
  | Fixed
  | Plan
  | Move
  | Remap
  | Fold

let phase_to_string = function
  | Safepoint -> "safepoint"
  | Root_scan -> "root-scan"
  | Card_scan -> "card-scan"
  | Mark -> "mark"
  | Copy -> "copy"
  | Promote -> "promote"
  | Sweep -> "sweep"
  | Compact -> "compact"
  | Region_overhead -> "region-overhead"
  | Fixed -> "fixed"
  | Plan -> "plan"
  | Move -> "move"
  | Remap -> "remap"
  | Fold -> "fold"

(* Remap/Fold (pauseless flips) are appended after Fixed so the existing
   per-phase CSV columns keep their positions. *)
let all_phases =
  [
    Safepoint; Root_scan; Card_scan; Mark; Copy; Promote; Sweep; Compact;
    Region_overhead; Fixed; Remap; Fold;
  ]

type t = {
  collector : string;
  kind : string;
  cause : string;
  start_us : float;
  duration_us : float;
  phases : (phase * float) list;
  sub : (phase * float) list;
  young_before : int;
  young_after : int;
  old_before : int;
  old_after : int;
  promoted : int;
}

let phase_us t p =
  List.fold_left
    (fun acc (q, us) -> if q = p then acc +. us else acc)
    0.0 t.phases

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

let to_json t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"type\":\"pause\",\"collector\":\"%s\",\"kind\":\"%s\",\"cause\":\"%s\",\"start_us\":%.3f,\"duration_us\":%.3f,\"phases\":{"
       (json_escape t.collector) (json_escape t.kind) (json_escape t.cause)
       t.start_us t.duration_us);
  List.iteri
    (fun i (p, us) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "\"%s\":%.3f" (phase_to_string p) us))
    t.phases;
  Buffer.add_char buf '}';
  if t.sub <> [] then begin
    Buffer.add_string buf ",\"sub\":{";
    List.iteri
      (fun i (p, us) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf
          (Printf.sprintf "\"%s\":%.3f" (phase_to_string p) us))
      t.sub;
    Buffer.add_char buf '}'
  end;
  Buffer.add_string buf
    (Printf.sprintf
       ",\"young_before\":%d,\"young_after\":%d,\"old_before\":%d,\"old_after\":%d,\"promoted\":%d}"
       t.young_before t.young_after t.old_before t.old_after t.promoted);
  Buffer.contents buf

(* Duration attributed to one sub-phase; 0 when absent. *)
let sub_us t p =
  List.fold_left (fun acc (q, us) -> if q = p then acc +. us else acc) 0.0 t.sub

let csv_header =
  "collector,kind,cause,start_us,duration_us,"
  ^ String.concat ","
      (List.map (fun p -> phase_to_string p ^ "_us") all_phases)
  ^ ",plan_us,move_us,young_before,young_after,old_before,old_after,promoted"

let to_csv_row t =
  let cause =
    if String.contains t.cause ',' then "\"" ^ t.cause ^ "\"" else t.cause
  in
  Printf.sprintf "%s,%s,%s,%.3f,%.3f,%s,%.3f,%.3f,%d,%d,%d,%d,%d" t.collector
    t.kind cause t.start_us t.duration_us
    (String.concat ","
       (List.map (fun p -> Printf.sprintf "%.3f" (phase_us t p)) all_phases))
    (sub_us t Plan) (sub_us t Move) t.young_before t.young_after t.old_before
    t.old_after t.promoted
