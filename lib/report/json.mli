(** A minimal JSON emitter (no external dependencies) for machine-readable
    experiment output. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?pretty:bool -> t -> string
(** Serialize.  [pretty] (default true) indents with two spaces.
    Strings escape quotes, backslashes and control characters ([\n],
    [\r], [\t], otherwise [\u00XX]); every other byte is copied as it
    is. *)

val parse : string -> (t, string) result
(** Recursive-descent JSON parsing (objects, arrays, strings with the
    escapes {!to_string} emits, integers, floats, booleans, null).  Numbers
    without a fraction or exponent parse as [Int]. *)
