(** Hexadecimal and byte-string helpers shared by every layer of the
    repository.  All byte strings are immutable OCaml [string] values; hex
    strings are lowercase and may carry an optional ["0x"] prefix on input. *)

val of_hex : string -> string
(** [of_hex s] decodes a hex string (with or without ["0x"] prefix) into raw
    bytes.  Raises [Invalid_argument] on odd length or non-hex characters. *)

val of_hex_opt : string -> string option
(** Like {!of_hex} but returns [None] instead of raising. *)

val hex_digit : char -> int
(** The value of one hex digit, either case.  Raises [Invalid_argument]
    naming the character otherwise. *)

val to_hex : ?prefix:bool -> string -> string
(** [to_hex bytes] encodes raw bytes as lowercase hex.  [prefix] (default
    [true]) prepends ["0x"]. *)

val is_hex : string -> bool
(** [is_hex s] is [true] iff [s] (ignoring any ["0x"] prefix) has even length
    and contains only hex digits. *)

val pad_left : int -> char -> string -> string
(** [pad_left n c s] left-pads [s] with [c] to length [n]; if [s] is already
    at least [n] long it is returned unchanged. *)

val pad_right : int -> char -> string -> string
(** Right-padding counterpart of {!pad_left}. *)

val take : int -> string -> string
(** [take n s] is the first [min n (length s)] bytes of [s]. *)

val drop : int -> string -> string
(** [drop n s] is [s] without its first [n] bytes (empty if [n >= length]). *)

val slice : string -> int -> int -> string
(** [slice s pos len] extracts [len] bytes starting at [pos], zero-padding on
    the right when the requested range extends past the end of [s] (EVM
    memory/calldata semantics). *)

val repeat : char -> int -> string
(** [repeat c n] is the string of [n] copies of [c]. *)

val xor : string -> string -> string
(** Byte-wise xor of two equal-length strings.  Raises [Invalid_argument] on
    length mismatch. *)

val byte : string -> int -> int
(** [byte s i] is [Char.code s.[i]]. *)

val chunks : int -> string -> string list
(** [chunks n s] splits [s] into pieces of [n] bytes; the final piece may be
    shorter.  [chunks n ""] is [[]]. *)
