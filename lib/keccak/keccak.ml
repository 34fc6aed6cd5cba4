(* Keccak-f[1600] with rate 1088 / capacity 512 and the original Keccak
   multi-rate padding (0x01 ... 0x80), i.e. Ethereum's Keccak-256.

   The 25 64-bit lanes live in one 200-byte buffer per digest, read and
   written with the unchecked native-endian 64-bit primitives (every
   offset below is a constant under 200).  One round is unrolled with its
   rho/pi/chi lane indices written out, so every intermediate is a
   let-bound [int64] that ocamlopt keeps unboxed: the permutation
   allocates nothing.  The lanes' byte order in the buffer is private;
   absorbing and squeezing convert from and to little-endian. *)

let rate_bytes = 136 (* (1600 - 512) / 8 *)

let round_constants =
  [|
    0x0000000000000001L; 0x0000000000008082L; 0x800000000000808aL;
    0x8000000080008000L; 0x000000000000808bL; 0x0000000080000001L;
    0x8000000080008081L; 0x8000000000008009L; 0x000000000000008aL;
    0x0000000000000088L; 0x0000000080008009L; 0x000000008000000aL;
    0x000000008000808bL; 0x800000000000008bL; 0x8000000000008089L;
    0x8000000000008003L; 0x8000000000008002L; 0x8000000000000080L;
    0x000000000000800aL; 0x800000008000000aL; 0x8000000080008081L;
    0x8000000000008080L; 0x0000000080000001L; 0x8000000080008008L;
  |]

external get_lane : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_lane : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external ( ^^ ) : int64 -> int64 -> int64 = "%int64_xor"
external ( &&& ) : int64 -> int64 -> int64 = "%int64_and"

let[@inline] rotl x n =
  Int64.logor (Int64.shift_left x n) (Int64.shift_right_logical x (64 - n))

(* Lane (x, y) is [a<x + 5y>], at byte offset [8 * (x + 5y)]. *)
let keccak_f st =
  for round = 0 to 23 do
    let a00 = get_lane st 0 in
    let a01 = get_lane st 8 in
    let a02 = get_lane st 16 in
    let a03 = get_lane st 24 in
    let a04 = get_lane st 32 in
    let a05 = get_lane st 40 in
    let a06 = get_lane st 48 in
    let a07 = get_lane st 56 in
    let a08 = get_lane st 64 in
    let a09 = get_lane st 72 in
    let a10 = get_lane st 80 in
    let a11 = get_lane st 88 in
    let a12 = get_lane st 96 in
    let a13 = get_lane st 104 in
    let a14 = get_lane st 112 in
    let a15 = get_lane st 120 in
    let a16 = get_lane st 128 in
    let a17 = get_lane st 136 in
    let a18 = get_lane st 144 in
    let a19 = get_lane st 152 in
    let a20 = get_lane st 160 in
    let a21 = get_lane st 168 in
    let a22 = get_lane st 176 in
    let a23 = get_lane st 184 in
    let a24 = get_lane st 192 in
    (* theta: column parities c, and d = c[x-1] xor rotl1 c[x+1]. *)
    let c0 = a00 ^^ a05 ^^ a10 ^^ a15 ^^ a20 in
    let c1 = a01 ^^ a06 ^^ a11 ^^ a16 ^^ a21 in
    let c2 = a02 ^^ a07 ^^ a12 ^^ a17 ^^ a22 in
    let c3 = a03 ^^ a08 ^^ a13 ^^ a18 ^^ a23 in
    let c4 = a04 ^^ a09 ^^ a14 ^^ a19 ^^ a24 in
    let d0 = c4 ^^ rotl c1 1 in
    let d1 = c0 ^^ rotl c2 1 in
    let d2 = c1 ^^ rotl c3 1 in
    let d3 = c2 ^^ rotl c4 1 in
    let d4 = c3 ^^ rotl c0 1 in
    (* theta applied, then rho rotations, stored at their pi position. *)
    let b00 = a00 ^^ d0 in
    let b01 = rotl (a06 ^^ d1) 44 in
    let b02 = rotl (a12 ^^ d2) 43 in
    let b03 = rotl (a18 ^^ d3) 21 in
    let b04 = rotl (a24 ^^ d4) 14 in
    let b05 = rotl (a03 ^^ d3) 28 in
    let b06 = rotl (a09 ^^ d4) 20 in
    let b07 = rotl (a10 ^^ d0) 3 in
    let b08 = rotl (a16 ^^ d1) 45 in
    let b09 = rotl (a22 ^^ d2) 61 in
    let b10 = rotl (a01 ^^ d1) 1 in
    let b11 = rotl (a07 ^^ d2) 6 in
    let b12 = rotl (a13 ^^ d3) 25 in
    let b13 = rotl (a19 ^^ d4) 8 in
    let b14 = rotl (a20 ^^ d0) 18 in
    let b15 = rotl (a04 ^^ d4) 27 in
    let b16 = rotl (a05 ^^ d0) 36 in
    let b17 = rotl (a11 ^^ d1) 10 in
    let b18 = rotl (a17 ^^ d2) 15 in
    let b19 = rotl (a23 ^^ d3) 56 in
    let b20 = rotl (a02 ^^ d2) 62 in
    let b21 = rotl (a08 ^^ d3) 55 in
    let b22 = rotl (a14 ^^ d4) 39 in
    let b23 = rotl (a15 ^^ d0) 41 in
    let b24 = rotl (a21 ^^ d1) 2 in
    (* chi, with iota folded into lane 0. *)
    set_lane st 0
      (b00 ^^ (Int64.lognot b01 &&& b02) ^^ round_constants.(round));
    set_lane st 8 (b01 ^^ (Int64.lognot b02 &&& b03));
    set_lane st 16 (b02 ^^ (Int64.lognot b03 &&& b04));
    set_lane st 24 (b03 ^^ (Int64.lognot b04 &&& b00));
    set_lane st 32 (b04 ^^ (Int64.lognot b00 &&& b01));
    set_lane st 40 (b05 ^^ (Int64.lognot b06 &&& b07));
    set_lane st 48 (b06 ^^ (Int64.lognot b07 &&& b08));
    set_lane st 56 (b07 ^^ (Int64.lognot b08 &&& b09));
    set_lane st 64 (b08 ^^ (Int64.lognot b09 &&& b05));
    set_lane st 72 (b09 ^^ (Int64.lognot b05 &&& b06));
    set_lane st 80 (b10 ^^ (Int64.lognot b11 &&& b12));
    set_lane st 88 (b11 ^^ (Int64.lognot b12 &&& b13));
    set_lane st 96 (b12 ^^ (Int64.lognot b13 &&& b14));
    set_lane st 104 (b13 ^^ (Int64.lognot b14 &&& b10));
    set_lane st 112 (b14 ^^ (Int64.lognot b10 &&& b11));
    set_lane st 120 (b15 ^^ (Int64.lognot b16 &&& b17));
    set_lane st 128 (b16 ^^ (Int64.lognot b17 &&& b18));
    set_lane st 136 (b17 ^^ (Int64.lognot b18 &&& b19));
    set_lane st 144 (b18 ^^ (Int64.lognot b19 &&& b15));
    set_lane st 152 (b19 ^^ (Int64.lognot b15 &&& b16));
    set_lane st 160 (b20 ^^ (Int64.lognot b21 &&& b22));
    set_lane st 168 (b21 ^^ (Int64.lognot b22 &&& b23));
    set_lane st 176 (b22 ^^ (Int64.lognot b23 &&& b24));
    set_lane st 184 (b23 ^^ (Int64.lognot b24 &&& b20));
    set_lane st 192 (b24 ^^ (Int64.lognot b20 &&& b21))
  done

(* XOR one rate block of [src] at [off], read as little-endian lanes, into
   the state and permute. *)
let absorb st src off =
  for w = 0 to (rate_bytes / 8) - 1 do
    set_lane st (8 * w)
      (get_lane st (8 * w) ^^ String.get_int64_le src (off + (8 * w)))
  done;
  keccak_f st

(* Permutations run on each domain, for allocation and work ratchets. *)
let permutation_count = Domain.DLS.new_key (fun () -> ref 0)

let digest msg =
  let st = Bytes.make 200 '\000' in
  let len = String.length msg in
  let full = len / rate_bytes in
  (* Full blocks are absorbed straight from the message; only the last,
     padded block is copied. *)
  for b = 0 to full - 1 do
    absorb st msg (b * rate_bytes)
  done;
  let tail = len - (full * rate_bytes) in
  let last = Bytes.make rate_bytes '\000' in
  Bytes.blit_string msg (full * rate_bytes) last 0 tail;
  Bytes.set last tail '\001';
  Bytes.set last (rate_bytes - 1)
    (Char.chr (Char.code (Bytes.get last (rate_bytes - 1)) lor 0x80));
  absorb st (Bytes.unsafe_to_string last) 0;
  let count = Domain.DLS.get permutation_count in
  count := !count + full + 1;
  (* Squeeze 32 bytes (a single rate block suffices). *)
  let out = Bytes.create 32 in
  for w = 0 to 3 do
    Bytes.set_int64_le out (8 * w) (get_lane st (8 * w))
  done;
  Bytes.unsafe_to_string out

let permutations () = !(Domain.DLS.get permutation_count)
let digest_hex msg = Hexutil.to_hex (digest msg)
let selector prototype = String.sub (digest prototype) 0 4
let selector_hex prototype = Hexutil.to_hex (selector prototype)

module Memo = struct
  type stats = { hits : int; misses : int }

  (* One memo table per domain (Domain.DLS): lookups are lock-free and
     never contend, at the cost of each worker warming its own table.
     Signature populations are small (a few hundred distinct prototypes
     per landscape), so the duplication is bytes, not megabytes. *)
  let slot =
    Domain.DLS.new_key (fun () ->
        ((Hashtbl.create 256 : (string, string) Hashtbl.t), ref 0, ref 0))

  let selector prototype =
    let tbl, hits, misses = Domain.DLS.get slot in
    match Hashtbl.find_opt tbl prototype with
    | Some s ->
        incr hits;
        s
    | None ->
        incr misses;
        let s = selector prototype in
        Hashtbl.replace tbl prototype s;
        s

  let stats () =
    let _, hits, misses = Domain.DLS.get slot in
    { hits = !hits; misses = !misses }

  let reset () =
    let tbl, hits, misses = Domain.DLS.get slot in
    Hashtbl.reset tbl;
    hits := 0;
    misses := 0
end
