(* Tests for table and chart rendering. *)

module Table = Gcperf_report.Table
module Chart = Gcperf_report.Chart
module Artifact = Gcperf.Artifact

let artifact ~columns rows =
  Artifact.make ~name:"t" ~title:"t" ~params:[] ~columns ~rows

let csv ~columns rows = Artifact.render (artifact ~columns rows) `Csv

let test_table_basic () =
  let t =
    Table.create ~columns:[ ("name", Table.Left); ("value", Table.Right) ]
  in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "22" ];
  let s = Table.render t in
  Alcotest.(check bool) "has header" true
    (String.length s > 0 && String.sub s 0 4 = "name");
  (* Right-aligned numbers line up on their last character. *)
  let lines = String.split_on_char '\n' s in
  Alcotest.(check bool) "enough lines" true (List.length lines >= 4)

let test_table_width_mismatch () =
  let t = Table.create ~columns:[ ("a", Table.Left) ] in
  Alcotest.check_raises "row width checked"
    (Invalid_argument "Table.add_row: width mismatch") (fun () ->
      Table.add_row t [ "x"; "y" ])

let test_table_csv () =
  Alcotest.(check string)
    "quotes commas and quotes" "name,note\n\"a,b\",\"say \"\"hi\"\"\"\n"
    (csv ~columns:[ "name"; "note" ]
       [ [ Artifact.Text "a,b"; Artifact.Text "say \"hi\"" ] ])

let test_table_csv_separators () =
  Alcotest.(check string)
    "one line per row, typed cells" "x,n,f,b\n1,2,0.5,true\nz,-3,1e+06,false\n"
    (csv ~columns:[ "x"; "n"; "f"; "b" ]
       Artifact.
         [
           [ Text "1"; Int 2; Float 0.5; Bool true ];
           [ Text "z"; Int (-3); Float 1e6; Bool false ];
         ])

let test_table_csv_newline () =
  Alcotest.(check string)
    "quotes a newline" "note\n\"two\nlines\"\n"
    (csv ~columns:[ "note" ] [ [ Artifact.Text "two\nlines" ] ])

let test_artifact_row_width () =
  Alcotest.check_raises "row width checked"
    (Invalid_argument "Artifact.make t: row 1 has 1 cells, expected 2")
    (fun () ->
      ignore
        (artifact ~columns:[ "a"; "b" ]
           Artifact.[ [ Int 1; Int 2 ]; [ Int 3 ] ]))

(* A JSON export's floats read back bit-equal: finite values as the
   shortest of %.15g/%.16g/%.17g that does, others as a quoted %h. *)
let prop_json_float_round_trip =
  let gen =
    QCheck.Gen.(
      oneof
        [
          float;
          (* subnormals: a zero exponent under any mantissa *)
          map
            (fun m ->
              Int64.float_of_bits (Int64.logand m 0xF_FFFF_FFFF_FFFFL))
            ui64;
          map float_of_int int;
          (* decimals such as 758.123456, which %.6g rounds *)
          map (fun n -> float_of_int n /. 1e6) int;
        ])
  in
  QCheck.Test.make ~name:"json floats round-trip" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%h") gen)
    (fun f ->
      let json =
        Artifact.render
          (artifact ~columns:[ "f" ] [ [ Artifact.Float f ] ])
          `Json
      in
      (* ... "rows":[[<cell>]]} *)
      let cell =
        let n = String.length json in
        let rec start i =
          if String.sub json i 9 = "\"rows\":[[" then i + 9 else start (i + 1)
        in
        let i = start 0 in
        String.sub json i (n - i - 3)
      in
      if Float.is_finite f then
        Int64.equal
          (Int64.bits_of_float (float_of_string cell))
          (Int64.bits_of_float f)
      else cell = "\"" ^ Printf.sprintf "%h" f ^ "\"")

let test_cells () =
  Alcotest.(check string) "float" "3.14" (Table.cell_f 3.14159);
  Alcotest.(check string) "decimals" "3.1" (Table.cell_f ~decimals:1 3.14159);
  Alcotest.(check string) "pct zero" "0.0" (Table.cell_pct 0.0);
  Alcotest.(check string) "pct small" "6.895" (Table.cell_pct 6.895);
  Alcotest.(check string) "pct large" "40.4" (Table.cell_pct 40.412)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_scatter () =
  let s =
    Chart.scatter ~x_label:"time" ~y_label:"pause"
      [
        { Chart.label = "G1"; glyph = 'G'; points = [| (0.0, 1.0); (5.0, 2.0) |] };
        { Chart.label = "CMS"; glyph = 'C'; points = [| (2.0, 0.5) |] };
      ]
  in
  Alcotest.(check bool) "plots G glyph" true (contains s "G");
  Alcotest.(check bool) "legend has both series" true
    (contains s "G = G1" && contains s "C = CMS");
  Alcotest.(check bool) "axis labels present" true
    (contains s "time" && contains s "pause")

let test_scatter_empty () =
  let s = Chart.scatter ~x_label:"x" ~y_label:"y" [] in
  Alcotest.(check bool) "renders without series" true (String.length s > 0)

let test_line_interpolates () =
  let s =
    Chart.line ~x_label:"iter" ~y_label:"s"
      [
        {
          Chart.label = "po";
          glyph = 'P';
          points = [| (0.0, 0.0); (10.0, 10.0) |];
        };
      ]
  in
  (* Interpolation fills many cells, far more than the two endpoints. *)
  let count =
    String.fold_left (fun a c -> if c = 'P' then a + 1 else a) 0 s
  in
  Alcotest.(check bool) "line drawn" true (count > 10)

let test_bars () =
  let s =
    Chart.bars ~title:"ranking" [ ("ParallelOld", 30.0); ("G1", 3.0) ]
  in
  Alcotest.(check bool) "title" true (contains s "ranking");
  Alcotest.(check bool) "labels" true
    (contains s "ParallelOld" && contains s "G1");
  (* The winner's bar is an order of magnitude longer. *)
  let bar_len line =
    String.fold_left (fun a c -> if c = '#' then a + 1 else a) 0 line
  in
  let lines = String.split_on_char '\n' s in
  let po = List.find (fun l -> contains l "ParallelOld") lines in
  let g1 = List.find (fun l -> contains l "G1") lines in
  Alcotest.(check bool) "proportional bars" true (bar_len po > 5 * bar_len g1)

let () =
  Alcotest.run "report"
    [
      ( "table",
        [
          Alcotest.test_case "basic" `Quick test_table_basic;
          Alcotest.test_case "width mismatch" `Quick test_table_width_mismatch;
          Alcotest.test_case "csv quoting" `Quick test_table_csv;
          Alcotest.test_case "csv separators" `Quick test_table_csv_separators;
          Alcotest.test_case "csv newline" `Quick test_table_csv_newline;
          Alcotest.test_case "cell formatting" `Quick test_cells;
        ] );
      ( "artifact",
        [
          Alcotest.test_case "row width" `Quick test_artifact_row_width;
          QCheck_alcotest.to_alcotest prop_json_float_round_trip;
        ] );
      ( "chart",
        [
          Alcotest.test_case "scatter" `Quick test_scatter;
          Alcotest.test_case "scatter empty" `Quick test_scatter_empty;
          Alcotest.test_case "line interpolates" `Quick test_line_interpolates;
          Alcotest.test_case "bars" `Quick test_bars;
        ] );
    ]
