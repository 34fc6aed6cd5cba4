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

(** {1 Readers}

    The one set of decoders every journal and checkpoint is read
    through.  Each takes a field name and an object, and returns
    [Error] naming the field and what it expected; none raises on any
    input. *)

val field :
  string -> (t -> ('a, string) result) -> t -> ('a, string) result
(** [field name decode obj] decodes field [name] through [decode]
    ([Result.ok] takes the value as it is). *)

val opt :
  string -> (t -> ('a, string) result) -> t -> ('a option, string) result
(** Like {!field}, but an absent or [Null] field is [None] (as is any
    field of a value that is not an object). *)

val int : string -> t -> (int, string) result
val bool : string -> t -> (bool, string) result
val string : string -> t -> (string, string) result

val list :
  string -> (t -> ('a, string) result) -> t -> ('a list, string) result
(** [list name decode obj] maps every element of the list field [name]
    through [decode], stopping at the first [Error]. *)
