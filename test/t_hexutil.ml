let check_s = Alcotest.(check string)
let check_b = Alcotest.(check bool)

let test_roundtrip () =
  check_s "decode" "\x01\x02\xff" (Hexutil.of_hex "0x0102ff");
  check_s "decode no prefix" "\x01\x02\xff" (Hexutil.of_hex "0102ff");
  check_s "encode" "0x0102ff" (Hexutil.to_hex "\x01\x02\xff");
  check_s "encode bare" "0102ff" (Hexutil.to_hex ~prefix:false "\x01\x02\xff");
  check_s "empty" "" (Hexutil.of_hex "0x");
  check_s "empty enc" "0x" (Hexutil.to_hex "")

let test_uppercase () =
  check_s "uppercase accepted" "\xab\xcd" (Hexutil.of_hex "0xABCD")

let test_invalid () =
  Alcotest.check_raises "odd length" (Invalid_argument "Hexutil.of_hex: odd-length hex string")
    (fun () -> ignore (Hexutil.of_hex "0x123"));
  check_b "of_hex_opt none" true (Hexutil.of_hex_opt "0xzz" = None);
  check_b "is_hex yes" true (Hexutil.is_hex "0xdeadbeef");
  check_b "is_hex odd" false (Hexutil.is_hex "abc");
  check_b "is_hex bad char" false (Hexutil.is_hex "0xgg")

let test_padding () =
  check_s "pad_left" "00ab" (Hexutil.pad_left 4 '0' "ab");
  check_s "pad_left noop" "abcdef" (Hexutil.pad_left 3 '0' "abcdef");
  check_s "pad_right" "ab00" (Hexutil.pad_right 4 '0' "ab");
  check_s "take" "ab" (Hexutil.take 2 "abcd");
  check_s "take beyond" "abcd" (Hexutil.take 9 "abcd");
  check_s "drop" "cd" (Hexutil.drop 2 "abcd");
  check_s "drop beyond" "" (Hexutil.drop 9 "abcd")

let test_slice () =
  check_s "inside" "bc" (Hexutil.slice "abcd" 1 2);
  check_s "zero pad past end" "d\000\000" (Hexutil.slice "abcd" 3 3);
  check_s "fully past end" "\000\000" (Hexutil.slice "abcd" 10 2);
  check_s "zero length" "" (Hexutil.slice "abcd" 1 0)

let test_xor () =
  check_s "xor" "\x03\x00" (Hexutil.xor "\x01\x02" "\x02\x02");
  Alcotest.check_raises "mismatch" (Invalid_argument "Hexutil.xor: length mismatch")
    (fun () -> ignore (Hexutil.xor "a" "ab"))

let test_chunks () =
  Alcotest.(check (list string)) "even" [ "ab"; "cd" ] (Hexutil.chunks 2 "abcd");
  Alcotest.(check (list string)) "ragged" [ "abc"; "d" ] (Hexutil.chunks 3 "abcd");
  Alcotest.(check (list string)) "empty" [] (Hexutil.chunks 4 "")

let qcheck_roundtrip =
  QCheck.Test.make ~name:"hex round-trip" ~count:500
    QCheck.(string_of_size (Gen.int_bound 64))
    (fun s -> Hexutil.of_hex (Hexutil.to_hex s) = s)

(* The codecs as they were before they wrote into one buffer, kept as the
   reference the current ones must match output for output and error for
   error. *)
module Reference = struct
  let strip_0x s =
    if String.length s >= 2 && s.[0] = '0' && (s.[1] = 'x' || s.[1] = 'X')
    then String.sub s 2 (String.length s - 2)
    else s

  let hex_value c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> invalid_arg (Printf.sprintf "Hexutil: invalid hex character %C" c)

  let of_hex s =
    let s = strip_0x s in
    let n = String.length s in
    if n mod 2 <> 0 then invalid_arg "Hexutil.of_hex: odd-length hex string";
    String.init (n / 2) (fun i ->
        Char.chr ((hex_value s.[2 * i] lsl 4) lor hex_value s.[(2 * i) + 1]))

  let hex_digits = "0123456789abcdef"

  let to_hex ?(prefix = true) bytes =
    let n = String.length bytes in
    let body =
      String.init (2 * n) (fun i ->
          let b = Char.code bytes.[i / 2] in
          hex_digits.[if i mod 2 = 0 then b lsr 4 else b land 0xf])
    in
    if prefix then "0x" ^ body else body
end

(* [f x], or the message of the [Invalid_argument] it raised. *)
let outcome f x = match f x with v -> Ok v | exception Invalid_argument m -> Error m

(* Strings a hex decoder meets: either prefix or none, any length (odd
   ones included, and past 64 digits), digits of both cases, and now and
   then a character that is no digit. *)
let gen_hexish =
  let open QCheck.Gen in
  let digit = oneofl (List.of_seq (String.to_seq "0123456789abcdefABCDEF")) in
  let junk = oneofl [ 'g'; 'x'; 'X'; 'z'; ' '; '_'; '-'; '\000'; '\xff' ] in
  map2 ( ^ )
    (oneofl [ ""; "0x"; "0X"; "x"; "0x0x"; "0Xx" ])
    (string_size ~gen:(frequency [ (30, digit); (1, junk) ]) (int_bound 70))

let arb_hexish = QCheck.make ~print:(Printf.sprintf "%S") gen_hexish

let qcheck_encode_matches_reference =
  QCheck.Test.make ~name:"to_hex writes what the reference wrote" ~count:500
    QCheck.(pair bool (string_of_size (Gen.int_bound 80)))
    (fun (prefix, b) ->
      Hexutil.to_hex ~prefix b = Reference.to_hex ~prefix b)

let qcheck_decode_matches_reference =
  QCheck.Test.make ~name:"of_hex accepts and rejects as the reference did"
    ~count:1000 arb_hexish (fun s ->
      outcome Hexutil.of_hex s = outcome Reference.of_hex s)

let suite =
  [
    Alcotest.test_case "roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "uppercase" `Quick test_uppercase;
    Alcotest.test_case "invalid" `Quick test_invalid;
    Alcotest.test_case "padding" `Quick test_padding;
    Alcotest.test_case "slice" `Quick test_slice;
    Alcotest.test_case "xor" `Quick test_xor;
    Alcotest.test_case "chunks" `Quick test_chunks;
    QCheck_alcotest.to_alcotest qcheck_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_encode_matches_reference;
    QCheck_alcotest.to_alcotest qcheck_decode_matches_reference;
  ]
