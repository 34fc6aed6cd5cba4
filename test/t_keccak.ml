let check_s = Alcotest.(check string)

(* Reference vectors from the original Keccak submission / Ethereum. *)
let test_empty () =
  check_s "keccak256(\"\")"
    "0xc5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"
    (Keccak.digest_hex "")

let test_abc () =
  check_s "keccak256(\"abc\")"
    "0x4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"
    (Keccak.digest_hex "abc")

let test_long () =
  (* Exercises multi-block absorption: 200 'a's span two rate blocks.
     Reference value from the Keccak-256 of "aaa...a" (200 bytes). *)
  check_s "200-byte message"
    "0x96ea54061def936c4be90b518992fdc6f12f535068a256229aca54267b4d084d"
    (Keccak.digest_hex (String.make 200 'a'));
  (* A message of exactly the 136-byte rate forces the all-padding block. *)
  check_s "136-byte message"
    "0xa6c4d403279fe3e0af03729caada8374b5ca54d8065329a3ebcaeb4b60aa386e"
    (Keccak.digest_hex (String.make 136 'a'))

(* Padding boundaries around the 136-byte rate, over the byte ramp
   0x00 0x01 0x02 ... (byte i is i mod 256).  Expected digests come from
   `openssl dgst -keccak-256 -r FILE` (OpenSSL 3.5, which gives the "abc"
   value above).  Length 135 leaves room for exactly one pad byte, so the
   0x01 and 0x80 bits share it (0x81); 136 and 272 end on a block
   boundary and get an all-padding block.  Each digest runs one Keccak-f
   permutation per absorbed block, padded block included. *)
let test_rate_boundaries () =
  List.iter
    (fun (n, expected) ->
      let msg = String.init n (fun i -> Char.chr (i land 0xff)) in
      let before = Keccak.permutations () in
      check_s (Printf.sprintf "%d-byte ramp" n) ("0x" ^ expected)
        (Keccak.digest_hex msg);
      Alcotest.(check int)
        (Printf.sprintf "%d-byte ramp permutations" n)
        ((n / 136) + 1)
        (Keccak.permutations () - before))
    [
      (0, "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470");
      (1, "bc36789e7a1e281436464229828f817d6612f7b477d66591ff96a9e064bcc98a");
      (134, "861e165162f806cd361c4421a48f205820ddf4deb02db9f041f48e179ddada97");
      (135, "cbdfd9dee5faad3818d6b06f95a219fd290b0e1706f6a82e5a595b9ce9faca62");
      (136, "7ce759f1ab7f9ce437719970c26b0a66ff11fe3e38e17df89cf5d29c7d7f807e");
      (137, "ac73d4fae68b8453f764007c1a20ce95994187861f0c3227a3a8e99a73a3b1db");
      (271, "7c974895b2a88303ff2dc6b58f438ceb0b298cac91099ac0539cc0f477506191");
      (272, "fdf2ec49e749960d3c8521a0219af8d03e30e2b3bf19bd16150ee0eaf133d66e");
      (273, "4f707289a9c3ccd0c4a51f2f17339f5dd171d371c04ff7783b735b5b22682eaf");
    ]

(* The permutation allocates nothing, so a digest's allocation (state,
   padded last block, output) does not grow with the message: 64 KiB is
   482 permutations, so even one word per permutation breaks the bound. *)
let test_digest_allocation () =
  let msg = String.make 65_536 'k' in
  ignore (Keccak.digest msg);
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (Keccak.digest msg));
  let words = Gc.minor_words () -. before in
  if words > 100.0 then
    Alcotest.failf "a 64 KiB digest allocated %.0f minor words" words

let test_selectors () =
  check_s "transfer(address,uint256)" "0xa9059cbb"
    (Keccak.selector_hex "transfer(address,uint256)");
  check_s "balanceOf(address)" "0x70a08231" (Keccak.selector_hex "balanceOf(address)");
  check_s "implementation()" "0x5c60da1b" (Keccak.selector_hex "implementation()");
  check_s "proxyType()" "0x4555d5c9" (Keccak.selector_hex "proxyType()")

(* The paper's running example (Listing 1): free_ether_withdrawal() and the
   crafted impl_LUsXCWD2AKCc() share selector 0xdf4a3106. *)
let test_paper_collision () =
  check_s "free_ether_withdrawal()" "0xdf4a3106"
    (Keccak.selector_hex "free_ether_withdrawal()");
  check_s "colliding pair" (Keccak.selector_hex "free_ether_withdrawal()")
    (Keccak.selector_hex "impl_LUsXCWD2AKCc()")

(* EIP constants used by the standard classifier (Table 4). *)
let test_eip_slots () =
  check_s "EIP-1822 PROXIABLE slot"
    "0xc5f16f0fcc639fa48a6947836d9850f504798523bf8c9a3a87d5876cf622bcf7"
    (Keccak.digest_hex "PROXIABLE");
  (* EIP-1967 slot = keccak("eip1967.proxy.implementation") - 1. *)
  let raw = U256.of_bytes_be (Keccak.digest "eip1967.proxy.implementation") in
  check_s "EIP-1967 implementation slot"
    "0x360894a13ba1a3210667c828492db98dca3e2076cc3735a920a3ca505d382bbc"
    (U256.to_hex_padded (U256.pred raw))

let qcheck_deterministic =
  QCheck.Test.make ~name:"deterministic and 32 bytes" ~count:200
    QCheck.(string_of_size (Gen.int_bound 300))
    (fun s -> Keccak.digest s = Keccak.digest s && String.length (Keccak.digest s) = 32)

let qcheck_distinct =
  QCheck.Test.make ~name:"distinct inputs hash differently" ~count:200
    QCheck.(pair (string_of_size (Gen.int_bound 64)) (string_of_size (Gen.int_bound 64)))
    (fun (a, b) -> a = b || Keccak.digest a <> Keccak.digest b)

let suite =
  [
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "abc" `Quick test_abc;
    Alcotest.test_case "long" `Quick test_long;
    Alcotest.test_case "selectors" `Quick test_selectors;
    Alcotest.test_case "paper collision 0xdf4a3106" `Quick test_paper_collision;
    Alcotest.test_case "eip slots" `Quick test_eip_slots;
    QCheck_alcotest.to_alcotest qcheck_deterministic;
    QCheck_alcotest.to_alcotest qcheck_distinct;
    Alcotest.test_case "rate boundaries" `Quick test_rate_boundaries;
    Alcotest.test_case "digest allocation is flat" `Quick
      test_digest_allocation;
  ]
