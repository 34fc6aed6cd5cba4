(* 256-bit words as 16 little-endian limbs of 16 bits, each stored in an
   OCaml int.  16-bit limbs keep every product below 2^32, so schoolbook
   multiplication never overflows the 63-bit native int.  A generic limb
   layer supports the 512-bit intermediates of ADDMOD/MULMOD. *)

let limbs = 16
let limb_bits = 16
let limb_mask = 0xffff

type t = int array (* length 8, each in [0, 2^32) *)

let make_zero () = Array.make limbs 0
let zero = make_zero ()
let one = Array.init limbs (fun i -> if i = 0 then 1 else 0)
let max_value = Array.make limbs limb_mask

(* ------------------------------------------------------------------ *)
(* Generic limb-vector helpers (arbitrary length, little-endian).      *)
(* ------------------------------------------------------------------ *)

let limbs_compare a b =
  let la = Array.length a and lb = Array.length b in
  let n = Stdlib.max la lb in
  let rec go i =
    if i < 0 then 0
    else
      let x = if i < la then a.(i) else 0
      and y = if i < lb then b.(i) else 0 in
      if x <> y then Stdlib.compare x y else go (i - 1)
  in
  go (n - 1)

let limbs_is_zero a = Array.for_all (fun x -> x = 0) a

(* Schoolbook multiplication: result length is |a| + |b|. *)
let limbs_mul a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make (la + lb) 0 in
  for i = 0 to la - 1 do
    let carry = ref 0 in
    for j = 0 to lb - 1 do
      let cur = r.(i + j) + (a.(i) * b.(j)) + !carry in
      r.(i + j) <- cur land limb_mask;
      carry := cur lsr limb_bits
    done;
    let k = ref (i + lb) in
    while !carry <> 0 do
      let cur = r.(!k) + !carry in
      r.(!k) <- cur land limb_mask;
      carry := cur lsr limb_bits;
      incr k
    done
  done;
  r

let limbs_bit a i =
  let limb = i / limb_bits and off = i mod limb_bits in
  if limb >= Array.length a then false else (a.(limb) lsr off) land 1 = 1

let limbs_set_bit a i =
  a.(i / limb_bits) <- a.(i / limb_bits) lor (1 lsl (i mod limb_bits))

let limbs_num_bits a =
  let rec limb_idx i = if i < 0 then -1 else if a.(i) <> 0 then i else limb_idx (i - 1) in
  let i = limb_idx (Array.length a - 1) in
  if i < 0 then 0
  else
    let rec top b = if b = 0 || a.(i) lsr (b - 1) land 1 = 1 then b else top (b - 1) in
    (i * limb_bits) + top limb_bits

(* In-place: a <- a - b, assuming a >= b and equal lengths. *)
let limbs_sub_in_place a b =
  let borrow = ref 0 in
  for i = 0 to Array.length a - 1 do
    let bi = if i < Array.length b then b.(i) else 0 in
    let cur = a.(i) - bi - !borrow in
    if cur < 0 then begin
      a.(i) <- cur + limb_mask + 1;
      borrow := 1
    end
    else begin
      a.(i) <- cur;
      borrow := 0
    end
  done

(* In-place: a <- a << 1 (within fixed width, dropping overflow). *)
let limbs_shl1_in_place a =
  let carry = ref 0 in
  for i = 0 to Array.length a - 1 do
    let cur = (a.(i) lsl 1) lor !carry in
    a.(i) <- cur land limb_mask;
    carry := cur lsr limb_bits
  done

(* Bitwise long division over limb vectors; returns (quotient, remainder)
   with the dividend's length.  Divisor must be non-zero. *)
let limbs_divmod a b =
  let n = Array.length a in
  let q = Array.make n 0 in
  let r = Array.make n 0 in
  let bits = limbs_num_bits a in
  for i = bits - 1 downto 0 do
    limbs_shl1_in_place r;
    if limbs_bit a i then r.(0) <- r.(0) lor 1;
    if limbs_compare r b >= 0 then begin
      limbs_sub_in_place r b;
      limbs_set_bit q i
    end
  done;
  (q, r)

(* ------------------------------------------------------------------ *)
(* Fixed-width 256-bit operations.                                     *)
(* ------------------------------------------------------------------ *)

let equal a b = limbs_compare a b = 0
let compare = limbs_compare
let is_zero = limbs_is_zero
let lt a b = limbs_compare a b < 0
let gt a b = limbs_compare a b > 0
let leq a b = limbs_compare a b <= 0
let geq a b = limbs_compare a b >= 0
let min a b = if leq a b then a else b
let max a b = if geq a b then a else b

let add a b =
  let r = make_zero () in
  let carry = ref 0 in
  for i = 0 to limbs - 1 do
    let cur = a.(i) + b.(i) + !carry in
    r.(i) <- cur land limb_mask;
    carry := cur lsr limb_bits
  done;
  r

let sub a b =
  let r = make_zero () in
  let borrow = ref 0 in
  for i = 0 to limbs - 1 do
    let cur = a.(i) - b.(i) - !borrow in
    if cur < 0 then begin
      r.(i) <- cur + limb_mask + 1;
      borrow := 1
    end
    else begin
      r.(i) <- cur;
      borrow := 0
    end
  done;
  r

let mul a b = Array.sub (limbs_mul a b) 0 limbs

let divmod a b =
  if is_zero b then (zero, zero)
  else
    let q, r = limbs_divmod a b in
    (q, r)

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)
let lognot a = Array.map (fun x -> lnot x land limb_mask) a
let logand a b = Array.init limbs (fun i -> a.(i) land b.(i))
let logor a b = Array.init limbs (fun i -> a.(i) lor b.(i))
let logxor a b = Array.init limbs (fun i -> a.(i) lxor b.(i))
let neg a = add (lognot a) one
let succ a = add a one
let pred a = sub a one
let bit a i = if i < 0 || i >= 256 then false else limbs_bit a i
let num_bits = limbs_num_bits
let is_negative a = bit a 255

let sdiv a b =
  if is_zero b then zero
  else
    let sa = is_negative a and sb = is_negative b in
    let ua = if sa then neg a else a in
    let ub = if sb then neg b else b in
    let q = div ua ub in
    if sa <> sb then neg q else q

let smod a b =
  if is_zero b then zero
  else
    let sa = is_negative a in
    let ua = if sa then neg a else a in
    let ub = if is_negative b then neg b else b in
    let r = rem ua ub in
    if sa then neg r else r

let slt a b =
  match (is_negative a, is_negative b) with
  | true, false -> true
  | false, true -> false
  | _ -> lt a b

let sgt a b = slt b a

let extend a = Array.append a (Array.make limbs 0)

let addmod a b m =
  if is_zero m then zero
  else
    let wide = Array.make (2 * limbs) 0 in
    let carry = ref 0 in
    for i = 0 to limbs - 1 do
      let cur = a.(i) + b.(i) + !carry in
      wide.(i) <- cur land limb_mask;
      carry := cur lsr limb_bits
    done;
    wide.(limbs) <- !carry;
    let _, r = limbs_divmod wide (extend m) in
    Array.sub r 0 limbs

let mulmod a b m =
  if is_zero m then zero
  else
    let wide = limbs_mul a b in
    let _, r = limbs_divmod wide (extend m) in
    Array.sub r 0 limbs

let shift_left a n =
  if n >= 256 || n < 0 then zero
  else begin
    let r = make_zero () in
    let limb_shift = n / limb_bits and bit_shift = n mod limb_bits in
    for i = limbs - 1 downto 0 do
      let src = i - limb_shift in
      if src >= 0 then begin
        r.(i) <- r.(i) lor ((a.(src) lsl bit_shift) land limb_mask);
        if bit_shift > 0 && src - 1 >= 0 then
          r.(i) <- r.(i) lor (a.(src - 1) lsr (limb_bits - bit_shift))
      end
    done;
    r
  end

let shift_right a n =
  if n >= 256 || n < 0 then zero
  else begin
    let r = make_zero () in
    let limb_shift = n / limb_bits and bit_shift = n mod limb_bits in
    for i = 0 to limbs - 1 do
      let src = i + limb_shift in
      if src < limbs then begin
        r.(i) <- a.(src) lsr bit_shift;
        if bit_shift > 0 && src + 1 < limbs then
          r.(i) <- r.(i) lor ((a.(src + 1) lsl (limb_bits - bit_shift)) land limb_mask)
      end
    done;
    r
  end

let shift_right_arith a n =
  if not (is_negative a) then shift_right a n
  else if n >= 256 then max_value
  else
    let shifted = shift_right a n in
    let fill = shift_left max_value (256 - n) in
    logor shifted fill

let exp base e =
  let result = ref one in
  let b = ref base in
  for i = 0 to num_bits e - 1 do
    if bit e i then result := mul !result !b;
    b := mul !b !b
  done;
  !result

let of_int n =
  if n < 0 then invalid_arg "U256.of_int: negative";
  let r = make_zero () in
  let v = ref n in
  let i = ref 0 in
  while !v <> 0 do
    r.(!i) <- !v land limb_mask;
    v := !v lsr limb_bits;
    incr i
  done;
  r

let to_int v =
  (* A non-negative OCaml int holds 62 value bits: limbs 0-2 fully, limb 3
     restricted to 14 bits, limbs 4+ must be zero. *)
  let ok = ref (v.(3) lsr 14 = 0) in
  for i = 4 to limbs - 1 do
    if v.(i) <> 0 then ok := false
  done;
  if not !ok then None
  else
    Some
      (v.(0) lor (v.(1) lsl 16) lor (v.(2) lsl 32) lor (v.(3) lsl 48))

let to_int_exn v =
  match to_int v with
  | Some n -> n
  | None -> invalid_arg "U256.to_int_exn: out of int range"

let of_int64 n =
  let r = make_zero () in
  for i = 0 to 3 do
    r.(i) <-
      Int64.to_int
        (Int64.logand (Int64.shift_right_logical n (16 * i)) 0xffffL)
  done;
  r

let of_bytes_be b =
  let len = String.length b in
  if len > 32 then invalid_arg "U256.of_bytes_be: more than 32 bytes";
  let r = make_zero () in
  for i = 0 to len - 1 do
    (* byte i (from the big end of b) lands at byte position len-1-i. *)
    let pos = len - 1 - i in
    let limb = pos / 2 and off = pos mod 2 in
    r.(limb) <- r.(limb) lor (Char.code b.[i] lsl (8 * off))
  done;
  r

let to_bytes_be v =
  String.init 32 (fun i ->
      let pos = 31 - i in
      let limb = pos / 2 and off = pos mod 2 in
      Char.chr ((v.(limb) lsr (8 * off)) land 0xff))

(* Digits go straight into the limbs.  One "0x" or "0X" is stripped, an
   odd-length body is padded with a leading '0', and its bytes are
   decoded as [Hexutil.of_hex] decodes a body, with the same errors: each
   byte's digits are checked in its order, so a bad digit (the 'x' of a
   second prefix too) raises the same error, and only then is a string
   of more than 32 bytes refused. *)
let of_hex s =
  let len = String.length s in
  let off =
    if len >= 2 && s.[0] = '0' && (s.[1] = 'x' || s.[1] = 'X') then 2 else 0
  in
  let pad = (len - off) land 1 in
  let nbytes = (len - off + pad) / 2 in
  let digit k = if k < pad then 0 else Hexutil.hex_digit s.[off + k - pad] in
  let r = make_zero () in
  for i = 0 to nbytes - 1 do
    let lo = digit ((2 * i) + 1) in
    let hi = digit (2 * i) in
    (* Byte i from the big end lands at byte position nbytes-1-i. *)
    let pos = nbytes - 1 - i in
    if pos < 32 then
      r.(pos / 2) <- r.(pos / 2) lor (((hi lsl 4) lor lo) lsl (8 * (pos land 1)))
  done;
  if nbytes > 32 then invalid_arg "U256.of_bytes_be: more than 32 bytes";
  r

let hex_digits = "0123456789abcdef"

(* Hex digit [k] of [v], counting from the least significant. *)
let nibble v k = (v.(k / 4) lsr (4 * (k land 3))) land 0xf

(* "0x" and the low [ndigits] digits of [v], written once. *)
let write_hex v ndigits =
  let b = Bytes.create (2 + ndigits) in
  Bytes.blit_string "0x" 0 b 0 2;
  for i = 0 to ndigits - 1 do
    Bytes.unsafe_set b (2 + i) hex_digits.[nibble v (ndigits - 1 - i)]
  done;
  Bytes.unsafe_to_string b

let to_hex v =
  let rec top k = if k > 0 && nibble v k = 0 then top (k - 1) else k in
  write_hex v (top 63 + 1)

let to_hex_padded v = write_hex v 64

let ten = of_int 10

let of_decimal s =
  if s = "" then invalid_arg "U256.of_decimal: empty string";
  String.fold_left
    (fun acc c ->
      match c with
      | '0' .. '9' -> add (mul acc ten) (of_int (Char.code c - Char.code '0'))
      | '_' -> acc
      | _ -> invalid_arg "U256.of_decimal: invalid digit")
    zero s

let to_decimal v =
  if is_zero v then "0"
  else
    let buf = Buffer.create 78 in
    let rec go v =
      if not (is_zero v) then begin
        let q, r = divmod v ten in
        go q;
        Buffer.add_char buf (Char.chr (Char.code '0' + to_int_exn r))
      end
    in
    go v;
    Buffer.contents buf

let of_string s =
  if String.length s >= 2 && s.[0] = '0' && (s.[1] = 'x' || s.[1] = 'X') then
    of_hex s
  else of_decimal s

let byte_at v i =
  if i < 0 || i >= 32 then zero
  else
    let pos = 31 - i in
    let limb = pos / 2 and off = pos mod 2 in
    of_int ((v.(limb) lsr (8 * off)) land 0xff)

let sign_extend v k =
  if k < 0 || k >= 31 then v
  else
    let sign_bit = (8 * (k + 1)) - 1 in
    if bit v sign_bit then
      (* Set all bits above the sign bit. *)
      logor v (shift_left max_value (sign_bit + 1))
    else logand v (lognot (shift_left max_value (sign_bit + 1)))

let pp fmt v = Format.pp_print_string fmt (to_hex v)

let hash v =
  Array.fold_left (fun acc limb -> (acc * 1000003) lxor limb) 0 v

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Map = Map.Make (Ord)
module Set = Set.Make (Ord)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
