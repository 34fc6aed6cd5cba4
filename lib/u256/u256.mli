(** Unsigned 256-bit integers with EVM semantics.

    This module implements the word type of the Ethereum Virtual Machine:
    all arithmetic wraps modulo 2{^256}, division by zero yields zero, and
    the signed operations ([sdiv], [smod], [slt], [sgt], [sar],
    [sign_extend]) interpret words as two's-complement values, exactly as
    the EVM instruction set specifies.  Values are immutable. *)

type t

val zero : t
val one : t
val max_value : t
(** 2{^256} - 1, the all-ones word. *)

(** {1 Conversions} *)

val of_int : int -> t
(** [of_int n] requires [n >= 0]. *)

val to_int : t -> int option
(** [to_int v] is [Some n] when [v] fits in a non-negative OCaml [int]. *)

val to_int_exn : t -> int
(** Like {!to_int} but raises [Invalid_argument] when out of range. *)

val of_int64 : int64 -> t
(** [of_int64 n] treats [n] as unsigned. *)

val of_bytes_be : string -> t
(** [of_bytes_be b] interprets up to 32 big-endian bytes; shorter strings are
    left-padded with zeros.  Raises [Invalid_argument] beyond 32 bytes. *)

val to_bytes_be : t -> string
(** Always 32 bytes. *)

val of_hex : string -> t
(** Accepts at most one ["0x"] or ["0X"] prefix, then hex digits only, of
    odd length too.  Raises [Invalid_argument] on anything else, or on
    more than 32 bytes. *)

val to_hex : t -> string
(** Minimal-length lowercase hex with ["0x"] prefix (["0x0"] for zero). *)

val to_hex_padded : t -> string
(** 64-digit zero-padded hex with ["0x"] prefix. *)

val of_decimal : string -> t
val to_decimal : t -> string

val of_string : string -> t
(** [of_string s] parses hex when [s] starts with ["0x"], decimal otherwise. *)

(** {1 Comparisons} *)

val equal : t -> t -> bool
val compare : t -> t -> int
val is_zero : t -> bool
val lt : t -> t -> bool
val gt : t -> t -> bool
val leq : t -> t -> bool
val geq : t -> t -> bool
val slt : t -> t -> bool
(** Signed less-than (EVM [SLT]). *)

val sgt : t -> t -> bool
(** Signed greater-than (EVM [SGT]). *)

val min : t -> t -> t
val max : t -> t -> t

(** {1 Arithmetic (wrapping modulo 2{^256})} *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val divmod : t -> t -> t * t
(** [divmod a b] is [(a / b, a mod b)]; both zero when [b] is zero. *)

val div : t -> t -> t
val rem : t -> t -> t
val sdiv : t -> t -> t
(** Signed division truncating toward zero (EVM [SDIV]). *)

val smod : t -> t -> t
(** Signed remainder taking the dividend's sign (EVM [SMOD]). *)

val addmod : t -> t -> t -> t
(** [(a + b) mod m] computed without intermediate overflow (EVM [ADDMOD]). *)

val mulmod : t -> t -> t -> t
(** [(a * b) mod m] computed over a 512-bit intermediate (EVM [MULMOD]). *)

val exp : t -> t -> t
(** Wrapping exponentiation (EVM [EXP]). *)

val neg : t -> t
(** Two's-complement negation. *)

val succ : t -> t
val pred : t -> t

(** {1 Bitwise operations} *)

val lognot : t -> t
val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t

val shift_left : t -> int -> t
(** [shift_left v n] is zero when [n >= 256] (EVM [SHL]). *)

val shift_right : t -> int -> t
(** Logical right shift; zero when [n >= 256] (EVM [SHR]). *)

val shift_right_arith : t -> int -> t
(** Arithmetic right shift replicating the sign bit (EVM [SAR]). *)

val byte_at : t -> int -> t
(** [byte_at v i] is the [i]-th byte counted from the most significant end
    (EVM [BYTE]); zero when [i >= 32]. *)

val sign_extend : t -> int -> t
(** [sign_extend v k] extends the sign bit of byte [k] (counted from the
    least significant end) through the high bytes (EVM [SIGNEXTEND]).
    Identity when [k >= 31]. *)

val bit : t -> int -> bool
(** [bit v i] is bit [i] (0 = least significant). *)

val num_bits : t -> int
(** Position of the highest set bit plus one; 0 for zero. *)

(** {1 Formatting} *)

val pp : Format.formatter -> t -> unit
(** Prints {!to_hex}. *)

val hash : t -> int
(** Hash compatible with {!equal}, for use in hash tables. *)

module Map : Map.S with type key = t
module Set : Set.S with type elt = t

module Tbl : Hashtbl.S with type key = t
(** Hash tables keyed by words, using {!equal}/{!hash} instead of the
    polymorphic hash, so lookups never allocate or traverse structurally. *)
