module Json = Report.Json

let check_b = Alcotest.(check bool)
let check_s = Alcotest.(check string)

let test_table_alignment () =
  let out =
    Report.table ~title:"T" ~header:[ "a"; "bbbb" ]
      [ [ "xx"; "y" ]; [ "1"; "22222" ] ]
  in
  check_b "title line" true (String.length out > 0 && String.sub out 0 4 = "== T");
  (* All data lines align to the same width grid: the separator is as long
     as the padded header. *)
  let lines = String.split_on_char '\n' out in
  (match lines with
  | _title :: header :: sep :: _ ->
      check_b "separator matches header width" true
        (String.length sep = String.length header)
  | _ -> Alcotest.fail "table shape")

let test_histogram_scaling () =
  let out = Report.histogram ~width:10 ~title:"H" [ ("a", 100); ("b", 50); ("c", 0) ] in
  let count_hashes line =
    String.fold_left (fun acc c -> if c = '#' then acc + 1 else acc) 0 line
  in
  match String.split_on_char '\n' out with
  | _ :: la :: lb :: lc :: _ ->
      check_b "max bar" true (count_hashes la = 10);
      check_b "half bar" true (count_hashes lb = 5);
      check_b "zero bar" true (count_hashes lc = 0)
  | _ -> Alcotest.fail "histogram shape"

let test_series_rendering () =
  let out =
    Report.series ~title:"S" ~xlabel:"year" ~ylabel:"count"
      [ ("2021", 1.5); ("2022", 20.0) ]
  in
  check_b "has axis note" true
    (let rec has i =
       i + 13 <= String.length out
       && (String.sub out i 13 = "count vs year" || has (i + 1))
     in
     has 0);
  check_b "rows present" true (String.length out > 30)

let test_json_parse_basics () =
  let ok s v =
    match Json.parse s with
    | Ok got -> check_b ("parse " ^ s) true (got = v)
    | Error e -> Alcotest.failf "parse %s failed: %s" s e
  in
  ok "42" (Json.Int 42);
  ok "-7" (Json.Int (-7));
  ok "3.5" (Json.Float 3.5);
  ok "true" (Json.Bool true);
  ok "null" Json.Null;
  ok "\"a\\nb\"" (Json.String "a\nb");
  ok "[]" (Json.List []);
  ok "{}" (Json.Obj []);
  ok "[1, 2]" (Json.List [ Json.Int 1; Json.Int 2 ]);
  ok "{\"k\": [true]}" (Json.Obj [ ("k", Json.List [ Json.Bool true ]) ]);
  (* RFC 8259 numbers: a negative zero, either exponent letter, a
     negative exponent. *)
  ok "-0" (Json.Int 0);
  ok "1E5" (Json.Float 1e5);
  ok "1e-3" (Json.Float 1e-3);
  (* A float JSON cannot spell is written as null, which parses. *)
  ok (Json.to_string (Json.Float infinity)) Json.Null;
  ok (Json.to_string (Json.Float nan)) Json.Null;
  (* Errors. *)
  List.iter
    (fun bad ->
      check_b ("reject " ^ bad) true
        (match Json.parse bad with Error _ -> true | Ok _ -> false))
    [
      "{";
      "[1,]";
      "\"open";
      "tru";
      "1 2";
      "";
      (* A \u escape takes exactly four hex digits. *)
      {|"\uZZZZ"|};
      {|"\u12_3"|};
      {|"\u+0ff"|};
      (* Numbers outside RFC 8259's grammar, an integer no [int] holds,
         and a float that overflows to infinity. *)
      "+1";
      "007";
      ".5";
      "1.";
      "-";
      "1e";
      "99999999999999999999";
      "1e400";
    ]

let test_json_unicode_escape () =
  match Json.parse "\"\\u0041\\u00e9\"" with
  | Ok (Json.String s) -> check_s "A + e-acute utf8" "A\xc3\xa9" s
  | _ -> Alcotest.fail "unicode escape"

(* Round trip: everything the emitter produces must parse back to itself. *)
let arb_json =
  let open QCheck.Gen in
  let rec gen depth =
    if depth = 0 then
      oneof
        [
          map (fun n -> Json.Int n) (int_range (-1000) 1000);
          map (fun b -> Json.Bool b) bool;
          return Json.Null;
          map (fun s -> Json.String s) (string_size ~gen:printable (int_bound 20));
        ]
    else
      frequency
        [
          (2, gen 0);
          ( 1,
            map (fun l -> Json.List l) (list_size (int_bound 4) (gen (depth - 1)))
          );
          ( 1,
            map
              (fun kvs ->
                Json.Obj (List.mapi (fun i v -> (Printf.sprintf "k%d" i, v)) kvs))
              (list_size (int_bound 4) (gen (depth - 1))) );
        ]
  in
  QCheck.make ~print:(Json.to_string ~pretty:false) (gen 3)

let qcheck_roundtrip =
  QCheck.Test.make ~name:"json print/parse round-trip" ~count:300 arb_json
    (fun v ->
      match Json.parse (Json.to_string v) with
      | Ok got -> got = v
      | Error _ -> false)

let qcheck_roundtrip_compact =
  QCheck.Test.make ~name:"compact json round-trip" ~count:300 arb_json
    (fun v ->
      match Json.parse (Json.to_string ~pretty:false v) with
      | Ok got -> got = v
      | Error _ -> false)

(* A reference printer that copies every string through a fresh buffer
   and builds each indent anew: the property below holds [Json.to_string]
   to its bytes. *)
module Oracle = struct
  let escape s =
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let to_string ?(pretty = true) value =
    let buf = Buffer.create 256 in
    let indent n =
      if pretty then Buffer.add_string buf (String.make (2 * n) ' ')
    in
    let newline () = if pretty then Buffer.add_char buf '\n' in
    let rec emit depth = function
      | Json.Null -> Buffer.add_string buf "null"
      | Json.Bool b -> Buffer.add_string buf (string_of_bool b)
      | Json.Int n -> Buffer.add_string buf (string_of_int n)
      | Json.Float f ->
          if Float.is_integer f && Float.abs f < 1e15 then
            Buffer.add_string buf (Printf.sprintf "%.1f" f)
          else
            let short = Printf.sprintf "%.15g" f in
            if float_of_string short = f then Buffer.add_string buf short
            else Buffer.add_string buf (Printf.sprintf "%.17g" f)
      | Json.String s ->
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape s);
          Buffer.add_char buf '"'
      | Json.List [] -> Buffer.add_string buf "[]"
      | Json.List items ->
          Buffer.add_char buf '[';
          newline ();
          List.iteri
            (fun i item ->
              if i > 0 then begin
                Buffer.add_char buf ',';
                newline ()
              end;
              indent (depth + 1);
              emit (depth + 1) item)
            items;
          newline ();
          indent depth;
          Buffer.add_char buf ']'
      | Json.Obj [] -> Buffer.add_string buf "{}"
      | Json.Obj fields ->
          Buffer.add_char buf '{';
          newline ();
          List.iteri
            (fun i (key, v) ->
              if i > 0 then begin
                Buffer.add_char buf ',';
                newline ()
              end;
              indent (depth + 1);
              Buffer.add_char buf '"';
              Buffer.add_string buf (escape key);
              Buffer.add_string buf "\": ";
              emit (depth + 1) v)
            fields;
          newline ();
          indent depth;
          Buffer.add_char buf '}'
    in
    emit 0 value;
    Buffer.contents buf
end

(* Trees whose strings and keys are drawn mostly from the bytes the
   escaper treats specially (quotes, backslashes, every control byte)
   beside plain and high bytes, with floats and deeper nesting than the
   round-trip generator. *)
let arb_escapable_json =
  let open QCheck.Gen in
  let byte =
    frequency
      [
        (3, oneofl [ '"'; '\\'; '\n'; '\r'; '\t' ]);
        (3, map Char.chr (int_range 0 0x1f));
        (4, printable);
        (1, map Char.chr (int_range 0x7f 0xff));
      ]
  in
  let str = string_size ~gen:byte (int_bound 12) in
  let rec gen depth =
    if depth = 0 then
      oneof
        [
          map (fun n -> Json.Int n) int;
          map (fun f -> Json.Float f) float;
          map (fun b -> Json.Bool b) bool;
          return Json.Null;
          map (fun s -> Json.String s) str;
        ]
    else
      frequency
        [
          (2, gen 0);
          ( 1,
            map
              (fun l -> Json.List l)
              (list_size (int_bound 4) (gen (depth - 1))) );
          ( 1,
            map
              (fun kvs -> Json.Obj kvs)
              (list_size (int_bound 4) (pair str (gen (depth - 1)))) );
        ]
  in
  QCheck.make
    ~print:(fun v -> String.escaped (Oracle.to_string ~pretty:false v))
    (gen 5)

let qcheck_printer_oracle =
  QCheck.Test.make ~name:"json printer matches the per-string-copy printer"
    ~count:500 arb_escapable_json (fun v ->
      Json.to_string v = Oracle.to_string v
      && Json.to_string ~pretty:false v = Oracle.to_string ~pretty:false v)

(* Past 128 levels the indentation outruns the run of spaces and is
   appended in pieces. *)
let test_printer_deep_indent () =
  let rec nest n v =
    if n = 0 then v
    else nest (n - 1) (Json.List [ Json.Int n; Json.Obj [ ("k\"", v) ] ])
  in
  let v = nest 150 (Json.String "leaf\x01") in
  check_s "deep pretty print matches the oracle" (Oracle.to_string v)
    (Json.to_string v)

let suite =
  [
    Alcotest.test_case "table alignment" `Quick test_table_alignment;
    Alcotest.test_case "histogram scaling" `Quick test_histogram_scaling;
    Alcotest.test_case "series rendering" `Quick test_series_rendering;
    Alcotest.test_case "json parse basics" `Quick test_json_parse_basics;
    Alcotest.test_case "json unicode escape" `Quick test_json_unicode_escape;
    QCheck_alcotest.to_alcotest qcheck_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_roundtrip_compact;
    QCheck_alcotest.to_alcotest qcheck_printer_oracle;
    Alcotest.test_case "json printer indents past 128 levels" `Quick
      test_printer_deep_indent;
  ]
