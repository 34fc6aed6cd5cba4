let u = Alcotest.testable U256.pp U256.equal
let check_u = Alcotest.check u
let check_s = Alcotest.(check string)
let check_b = Alcotest.(check bool)
let h = U256.of_hex
let i = U256.of_int

let test_conversions () =
  check_u "of_int 0" U256.zero (i 0);
  check_u "of_int 1" U256.one (i 1);
  check_s "to_hex zero" "0x0" (U256.to_hex U256.zero);
  check_s "to_hex" "0xdeadbeef" (U256.to_hex (h "0xdeadbeef"));
  check_s "to_hex_padded" ("0x" ^ String.make 56 '0' ^ "deadbeef")
    (U256.to_hex_padded (h "0xdeadbeef"));
  check_s "decimal round" "123456789012345678901234567890"
    (U256.to_decimal (U256.of_decimal "123456789012345678901234567890"));
  check_u "of_string hex" (i 255) (U256.of_string "0xff");
  check_u "of_string dec" (i 255) (U256.of_string "255");
  check_u "odd hex" (i 0xabc) (h "0xabc");
  Alcotest.(check (option int)) "to_int" (Some 42) (U256.to_int (i 42));
  Alcotest.(check (option int)) "to_int too big" None
    (U256.to_int (h "0x10000000000000000"));
  check_u "of_int64 unsigned" (h "0xffffffffffffffff") (U256.of_int64 (-1L))

let test_decimal_edges () =
  check_u "underscores allowed" (i 1000000) (U256.of_decimal "1_000_000");
  check_b "empty rejected" true
    (match U256.of_decimal "" with exception Invalid_argument _ -> true | _ -> false);
  check_b "junk rejected" true
    (match U256.of_decimal "12a" with exception Invalid_argument _ -> true | _ -> false);
  check_s "max value decimal"
    "115792089237316195423570985008687907853269984665640564039457584007913129639935"
    (U256.to_decimal U256.max_value)

let test_bytes_be () =
  check_s "32 bytes" (String.make 31 '\000' ^ "\x2a") (U256.to_bytes_be (i 42));
  check_u "round trip" (h "0x0102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f20")
    (U256.of_bytes_be (U256.to_bytes_be (h "0x0102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f20")));
  check_u "short input left-padded" (i 0xff) (U256.of_bytes_be "\xff")

let test_add_sub () =
  check_u "simple" (i 5) (U256.add (i 2) (i 3));
  check_u "wrap" U256.zero (U256.add U256.max_value U256.one);
  check_u "wrap 2" (i 1) (U256.add U256.max_value (i 2));
  check_u "sub" (i 1) (U256.sub (i 3) (i 2));
  check_u "sub wrap" U256.max_value (U256.sub U256.zero U256.one);
  check_u "carry chain"
    (h "0x10000000000000000")
    (U256.add (h "0xffffffffffffffff") U256.one)

let test_mul () =
  check_u "simple" (i 6) (U256.mul (i 2) (i 3));
  check_u "big"
    (h "0xfffffffffffffffffffffffffffffffe00000000000000000000000000000001")
    (U256.mul (h "0xffffffffffffffffffffffffffffffff") (h "0xffffffffffffffffffffffffffffffff"));
  check_u "wrap to zero" U256.zero
    (U256.mul (h "0x100000000000000000000000000000000") (h "0x100000000000000000000000000000000"));
  check_u "max*max" U256.one (U256.mul U256.max_value U256.max_value)

let test_div () =
  check_u "simple" (i 3) (U256.div (i 7) (i 2));
  check_u "rem" (i 1) (U256.rem (i 7) (i 2));
  check_u "div by zero" U256.zero (U256.div (i 7) U256.zero);
  check_u "rem by zero" U256.zero (U256.rem (i 7) U256.zero);
  check_u "big divide" (h "0xffffffffffffffff")
    (U256.div (h "0xfffffffffffffffe0000000000000001") (h "0xffffffffffffffff"));
  let q, r = U256.divmod (h "0x123456789abcdef0123456789abcdef") (i 1000) in
  check_u "q*b+r" (h "0x123456789abcdef0123456789abcdef")
    (U256.add (U256.mul q (i 1000)) r)

let test_signed () =
  let minus_one = U256.neg U256.one in
  let minus_two = U256.neg (i 2) in
  check_u "sdiv -7/2" (U256.neg (i 3)) (U256.sdiv (U256.neg (i 7)) (i 2));
  check_u "sdiv 7/-2" (U256.neg (i 3)) (U256.sdiv (i 7) minus_two);
  check_u "sdiv -7/-2" (i 3) (U256.sdiv (U256.neg (i 7)) minus_two);
  check_u "smod -7%2 keeps dividend sign" minus_one (U256.smod (U256.neg (i 7)) (i 2));
  check_u "smod 7%-2" U256.one (U256.smod (i 7) minus_two);
  check_b "slt neg < pos" true (U256.slt minus_one U256.one);
  check_b "slt pos < neg is false" false (U256.slt U256.one minus_one);
  check_b "slt both neg" true (U256.slt minus_two minus_one);
  check_b "sgt" true (U256.sgt U256.one minus_one);
  check_u "sdiv by zero" U256.zero (U256.sdiv minus_one U256.zero)

let test_modular () =
  check_u "addmod" (i 4) (U256.addmod (i 10) (i 10) (i 8));
  check_u "addmod overflow" (i 2)
    (U256.addmod U256.max_value (i 2) U256.max_value);
  check_u "mulmod" (i 4) (U256.mulmod (i 10) (i 10) (i 8));
  check_u "mulmod wide" (i 9)
    (U256.mulmod U256.max_value U256.max_value (i 12));
  check_u "addmod zero mod" U256.zero (U256.addmod (i 1) (i 1) U256.zero);
  check_u "mulmod zero mod" U256.zero (U256.mulmod (i 2) (i 2) U256.zero)

let test_exp () =
  check_u "2^10" (i 1024) (U256.exp (i 2) (i 10));
  check_u "x^0" U256.one (U256.exp (i 12345) U256.zero);
  check_u "0^0" U256.one (U256.exp U256.zero U256.zero);
  check_u "2^256 wraps" U256.zero (U256.exp (i 2) (i 256));
  check_u "2^255" (h "0x8000000000000000000000000000000000000000000000000000000000000000")
    (U256.exp (i 2) (i 255))

let test_bitwise () =
  check_u "and" (i 0b1000) (U256.logand (i 0b1100) (i 0b1010));
  check_u "or" (i 0b1110) (U256.logor (i 0b1100) (i 0b1010));
  check_u "xor" (i 0b0110) (U256.logxor (i 0b1100) (i 0b1010));
  check_u "not zero" U256.max_value (U256.lognot U256.zero);
  check_u "shl" (i 8) (U256.shift_left U256.one 3);
  check_u "shl out" U256.zero (U256.shift_left U256.one 256);
  check_u "shr" U256.one (U256.shift_right (i 8) 3);
  check_u "shr out" U256.zero (U256.shift_right U256.max_value 256);
  check_u "shl across limbs" (h "0x100000000") (U256.shift_left U256.one 32);
  check_u "shr across limbs" U256.one (U256.shift_right (h "0x100000000") 32);
  check_u "shl 255" (h "0x8000000000000000000000000000000000000000000000000000000000000000")
    (U256.shift_left U256.one 255)

let test_sar () =
  let top_set = U256.shift_left U256.one 255 in
  check_u "sar positive" U256.one (U256.shift_right_arith (i 8) 3);
  check_u "sar negative fills" (h "0xc000000000000000000000000000000000000000000000000000000000000000")
    (U256.shift_right_arith top_set 1);
  check_u "sar neg >=256" U256.max_value (U256.shift_right_arith top_set 256);
  check_u "sar -8 by 1 = -4" (U256.neg (i 4)) (U256.shift_right_arith (U256.neg (i 8)) 1)

let test_byte_sign () =
  let v = h "0x0102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f20" in
  check_u "byte 0 = msb" (i 1) (U256.byte_at v 0);
  check_u "byte 31 = lsb" (i 0x20) (U256.byte_at v 31);
  check_u "byte 32 = 0" U256.zero (U256.byte_at v 32);
  check_u "sign_extend byte0 0xff" U256.max_value (U256.sign_extend (i 0xff) 0);
  check_u "sign_extend byte0 0x7f" (i 0x7f) (U256.sign_extend (i 0x7f) 0);
  check_u "sign_extend clears high garbage" (i 0x7f)
    (U256.sign_extend (h "0xff7f") 0);
  check_u "sign_extend identity k>=31" v (U256.sign_extend v 31)

let test_compare () =
  check_b "lt" true (U256.lt (i 1) (i 2));
  check_b "gt" true (U256.gt (i 2) (i 1));
  check_b "leq eq" true (U256.leq (i 2) (i 2));
  check_b "geq" true (U256.geq (i 2) (i 2));
  check_u "min" (i 1) (U256.min (i 1) (i 2));
  check_u "max" (i 2) (U256.max (i 1) (i 2));
  check_b "high limb comparison" true
    (U256.lt (h "0xffffffffffffffff") (h "0x10000000000000000000000000000000000000000000000000"))

let arb_u256 =
  let gen =
    QCheck.Gen.map U256.of_bytes_be
      (QCheck.Gen.string_size ~gen:QCheck.Gen.char (QCheck.Gen.return 32))
  in
  QCheck.make ~print:U256.to_hex gen

let prop name f = QCheck.Test.make ~name ~count:300 arb_u256 f

(* The word codecs as they were before they wrote into one buffer: through
   32 big-endian bytes and a second hex string. *)
module Reference = struct
  module H = T_hexutil.Reference

  (* One prefix is stripped: [H.of_hex] strips the "0x" put back in front
     of the padded body, never a second one the input carried. *)
  let of_hex s =
    let s = H.strip_0x s in
    let s = if String.length s mod 2 = 1 then "0" ^ s else s in
    U256.of_bytes_be (H.of_hex ("0x" ^ s))

  let to_hex v =
    let full = H.to_hex ~prefix:false (U256.to_bytes_be v) in
    let rec skip i =
      if i >= String.length full - 1 then i
      else if full.[i] = '0' then skip (i + 1)
      else i
    in
    let i = skip 0 in
    "0x" ^ String.sub full i (String.length full - i)

  let to_hex_padded v = "0x" ^ H.to_hex ~prefix:false (U256.to_bytes_be v)
end

(* Words of every width: full ones, and ones with leading zero bytes. *)
let arb_any_width =
  QCheck.make ~print:U256.to_hex
    QCheck.Gen.(
      map U256.of_bytes_be (string_size ~gen:char (int_bound 32)))

let qcheck_codecs =
  [
    QCheck.Test.make ~name:"to_hex and to_hex_padded write what the reference wrote"
      ~count:500 arb_any_width (fun v ->
        U256.to_hex v = Reference.to_hex v
        && U256.to_hex_padded v = Reference.to_hex_padded v);
    QCheck.Test.make ~name:"of_hex accepts and rejects as the reference did"
      ~count:1000 T_hexutil.arb_hexish (fun s ->
        match (T_hexutil.outcome U256.of_hex s, T_hexutil.outcome Reference.of_hex s) with
        | Ok a, Ok b -> U256.equal a b
        | Error a, Error b -> a = b
        | _ -> false);
  ]
let prop2 name f =
  QCheck.Test.make ~name ~count:300 (QCheck.pair arb_u256 arb_u256) (fun (a, b) -> f a b)

let qsuite =
  [
    prop "add zero identity" (fun a -> U256.equal (U256.add a U256.zero) a);
    prop "sub self is zero" (fun a -> U256.is_zero (U256.sub a a));
    prop "neg involutive" (fun a -> U256.equal (U256.neg (U256.neg a)) a);
    prop "bytes round-trip" (fun a -> U256.equal (U256.of_bytes_be (U256.to_bytes_be a)) a);
    prop "hex round-trip" (fun a -> U256.equal (U256.of_hex (U256.to_hex a)) a);
    prop "decimal round-trip" (fun a ->
        U256.equal (U256.of_decimal (U256.to_decimal a)) a);
    prop "not involutive" (fun a -> U256.equal (U256.lognot (U256.lognot a)) a);
    prop2 "add commutative" (fun a b -> U256.equal (U256.add a b) (U256.add b a));
    prop2 "mul commutative" (fun a b -> U256.equal (U256.mul a b) (U256.mul b a));
    prop2 "add then sub" (fun a b -> U256.equal (U256.sub (U256.add a b) b) a);
    prop2 "divmod identity" (fun a b ->
        U256.is_zero b
        ||
        let q, r = U256.divmod a b in
        U256.equal (U256.add (U256.mul q b) r) a && U256.lt r b);
    prop2 "xor self-inverse" (fun a b -> U256.equal (U256.logxor (U256.logxor a b) b) a);
    prop2 "compare antisymmetric" (fun a b ->
        U256.compare a b = -U256.compare b a);
    prop "shift left then right" (fun a ->
        let masked = U256.shift_right (U256.shift_left a 8) 8 in
        U256.equal masked (U256.logand a (U256.shift_right U256.max_value 8)));
    prop2 "mulmod matches mul for small mod-free case" (fun a b ->
        let small_a = U256.logand a (U256.of_hex "0xffffffffffffffff") in
        let small_b = U256.logand b (U256.of_hex "0xffffffffffffffff") in
        let m = U256.max_value in
        U256.equal (U256.mulmod small_a small_b m) (U256.mul small_a small_b));
  ]

let suite =
  [
    Alcotest.test_case "conversions" `Quick test_conversions;
    Alcotest.test_case "decimal edges" `Quick test_decimal_edges;
    Alcotest.test_case "bytes_be" `Quick test_bytes_be;
    Alcotest.test_case "add_sub" `Quick test_add_sub;
    Alcotest.test_case "mul" `Quick test_mul;
    Alcotest.test_case "div" `Quick test_div;
    Alcotest.test_case "signed" `Quick test_signed;
    Alcotest.test_case "modular" `Quick test_modular;
    Alcotest.test_case "exp" `Quick test_exp;
    Alcotest.test_case "bitwise" `Quick test_bitwise;
    Alcotest.test_case "sar" `Quick test_sar;
    Alcotest.test_case "byte_sign" `Quick test_byte_sign;
    Alcotest.test_case "compare" `Quick test_compare;
  ]
  @ List.map QCheck_alcotest.to_alcotest (qsuite @ qcheck_codecs)
