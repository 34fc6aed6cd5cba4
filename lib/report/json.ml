type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* True when [s] holds a byte JSON strings must escape: a quote, a
   backslash or a control character. *)
let needs_escape s =
  let rec go i =
    i < String.length s
    && (match String.unsafe_get s i with
       | '"' | '\\' -> true
       | c -> Char.code c < 0x20 || go (i + 1))
  in
  go 0

(* A string that needs no escaping is appended as it is. *)
let add_escaped buf s =
  if not (needs_escape s) then Buffer.add_string buf s
  else
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
      s

(* Pretty output indents from one run of spaces instead of building a
   fresh string per line. *)
let spaces = String.make 256 ' '

let rec add_indent buf n =
  if n > 0 then begin
    let k = min n (String.length spaces) in
    Buffer.add_substring buf spaces 0 k;
    add_indent buf (n - k)
  end

let to_string ?(pretty = true) value =
  let buf = Buffer.create 256 in
  let indent n = if pretty then add_indent buf (2 * n) in
  let newline () = if pretty then Buffer.add_char buf '\n' in
  let rec emit depth = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Int n -> Buffer.add_string buf (string_of_int n)
    | Float f ->
        if Float.is_integer f && Float.abs f < 1e15 then
          Buffer.add_string buf (Printf.sprintf "%.1f" f)
        else
          (* Shortest decimal form that parses back to the same float, so
             machine-readable artifacts (checkpoints, metrics snapshots,
             trace timestamps) survive a round-trip bit-exactly. *)
          let short = Printf.sprintf "%.15g" f in
          if float_of_string short = f then Buffer.add_string buf short
          else Buffer.add_string buf (Printf.sprintf "%.17g" f)
    | String s ->
        Buffer.add_char buf '"';
        add_escaped buf s;
        Buffer.add_char buf '"'
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
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
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
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
            add_escaped buf key;
            Buffer.add_string buf "\": ";
            emit (depth + 1) v)
          fields;
        newline ();
        indent depth;
        Buffer.add_char buf '}'
  in
  emit 0 value;
  Buffer.contents buf

exception Parse_error of string

let parse input =
  let pos = ref 0 in
  let len = String.length input in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < len then Some input.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some x when x = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal word value =
    if !pos + String.length word <= len && String.sub input !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail ("expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some 'n' -> advance (); Buffer.add_char buf '\n'; go ()
          | Some 'r' -> advance (); Buffer.add_char buf '\r'; go ()
          | Some 't' -> advance (); Buffer.add_char buf '\t'; go ()
          | Some '"' -> advance (); Buffer.add_char buf '"'; go ()
          | Some '\\' -> advance (); Buffer.add_char buf '\\'; go ()
          | Some '/' -> advance (); Buffer.add_char buf '/'; go ()
          | Some 'u' ->
              advance ();
              if !pos + 4 > len then fail "bad unicode escape";
              let hex = String.sub input !pos 4 in
              pos := !pos + 4;
              let code = int_of_string ("0x" ^ hex) in
              if code < 0x80 then Buffer.add_char buf (Char.chr code)
              else begin
                (* Minimal UTF-8 encoding for the BMP. *)
                if code < 0x800 then begin
                  Buffer.add_char buf (Char.chr (0xc0 lor (code lsr 6)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
                end
                else begin
                  Buffer.add_char buf (Char.chr (0xe0 lor (code lsr 12)));
                  Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
                end
              end;
              go ()
          | _ -> fail "bad escape")
      | Some c ->
          advance ();
          Buffer.add_char buf c;
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c when is_num_char c -> true | _ -> false) do
      advance ()
    done;
    let text = String.sub input start (!pos - start) in
    match int_of_string_opt text with
    | Some n -> Int n
    | None -> (
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> fail "bad number")
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec members () =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            fields := (key, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ()
            | Some '}' -> advance ()
            | _ -> fail "expected , or }"
          in
          members ();
          Obj (List.rev !fields)
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [] in
          let rec elements () =
            let v = parse_value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements ()
            | Some ']' -> advance ()
            | _ -> fail "expected , or ]"
          in
          elements ();
          List (List.rev !items)
        end
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> len then fail "trailing content";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

(* Readers: each names what it found wanting in its [Error] and never
   raises, whatever the input. *)

let member name = function
  | Obj kvs -> (
      match List.assoc_opt name kvs with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "missing field %S" name))
  | _ -> Error (Printf.sprintf "expected an object with field %S" name)

let field name decode json = Result.bind (member name json) decode

let opt name decode json =
  match member name json with
  | Error _ | Ok Null -> Ok None
  | Ok v -> Result.map Option.some (decode v)

let typed what get name =
  field name (fun v ->
      match get v with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "field %S: expected %s" name what))

let int = typed "an int" (function Int n -> Some n | _ -> None)
let bool = typed "a bool" (function Bool b -> Some b | _ -> None)
let string = typed "a string" (function String s -> Some s | _ -> None)

let list name decode json =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest -> (
        match decode x with Ok y -> go (y :: acc) rest | Error e -> Error e)
  in
  Result.bind
    (typed "a list" (function List l -> Some l | _ -> None) name json)
    (go [])
