let has_0x s =
  String.length s >= 2 && s.[0] = '0' && (s.[1] = 'x' || s.[1] = 'X')

let strip_0x s = if has_0x s then String.sub s 2 (String.length s - 2) else s

let hex_digit c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> invalid_arg (Printf.sprintf "Hexutil: invalid hex character %C" c)

(* Both codecs write their result once, into one buffer.  A byte's low
   digit is checked before its high one, so a pair with two bad digits
   names the second. *)
let of_hex s =
  let off = if has_0x s then 2 else 0 in
  let n = String.length s - off in
  if n mod 2 <> 0 then invalid_arg "Hexutil.of_hex: odd-length hex string";
  let b = Bytes.create (n / 2) in
  for i = 0 to (n / 2) - 1 do
    let j = off + (2 * i) in
    let lo = hex_digit s.[j + 1] in
    let hi = hex_digit s.[j] in
    Bytes.unsafe_set b i (Char.unsafe_chr ((hi lsl 4) lor lo))
  done;
  Bytes.unsafe_to_string b

let of_hex_opt s = match of_hex s with b -> Some b | exception _ -> None

let hex_digits = "0123456789abcdef"

let to_hex ?(prefix = true) bytes =
  let n = String.length bytes in
  let off = if prefix then 2 else 0 in
  let b = Bytes.create (off + (2 * n)) in
  if prefix then Bytes.blit_string "0x" 0 b 0 2;
  for i = 0 to n - 1 do
    let c = Char.code (String.unsafe_get bytes i) in
    Bytes.unsafe_set b (off + (2 * i)) hex_digits.[c lsr 4];
    Bytes.unsafe_set b (off + (2 * i) + 1) hex_digits.[c land 0xf]
  done;
  Bytes.unsafe_to_string b

let is_hex s =
  let s = strip_0x s in
  String.length s mod 2 = 0
  && String.for_all
       (function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false)
       s

let repeat c n = String.make n c

let pad_left n c s =
  let len = String.length s in
  if len >= n then s else repeat c (n - len) ^ s

let pad_right n c s =
  let len = String.length s in
  if len >= n then s else s ^ repeat c (n - len)

let take n s =
  let n = min n (String.length s) in
  if n <= 0 then "" else String.sub s 0 n

let drop n s =
  let len = String.length s in
  if n >= len then "" else String.sub s n (len - n)

let slice s pos len =
  if len <= 0 then ""
  else
    String.init len (fun i ->
        let j = pos + i in
        if j >= 0 && j < String.length s then s.[j] else '\000')

let xor a b =
  if String.length a <> String.length b then
    invalid_arg "Hexutil.xor: length mismatch";
  String.init (String.length a) (fun i ->
      Char.chr (Char.code a.[i] lxor Char.code b.[i]))

let byte s i = Char.code s.[i]

let chunks n s =
  if n <= 0 then invalid_arg "Hexutil.chunks: non-positive chunk size";
  let len = String.length s in
  let rec loop pos acc =
    if pos >= len then List.rev acc
    else
      let sz = min n (len - pos) in
      loop (pos + sz) (String.sub s pos sz :: acc)
  in
  loop 0 []
