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
    is.  A non-finite [Float] (an infinity or a NaN, which JSON cannot
    spell) is written as [null]. *)

val parse : string -> (t, string) result
(** Recursive-descent JSON parsing (objects, arrays, strings with the
    escapes {!to_string} emits, integers, floats, booleans, null).  Numbers
    follow RFC 8259's grammar, so [+1], [007], [.5] and [1.] are errors.
    Numbers without a fraction or exponent parse as [Int], and one that
    does not fit an [int] is an error; any other number must be a finite
    float ([1e400] is an error). *)

(** {1 Readers}

    The one set of decoders for every document read: journals,
    checkpoints, wire requests and responses, request params, schema
    stamps and metrics snapshots.  Each takes a field name and an
    object, and returns [Error] naming the field and what it expected;
    none raises on any input.  {!opt} and {!optional} read an explicit
    [null] as absent. *)

val field :
  string -> (t -> ('a, string) result) -> t -> ('a, string) result
(** [field name decode obj] decodes field [name] through [decode]
    ([Result.ok] takes the value as it is). *)

val opt :
  string -> (t -> ('a, string) result) -> t -> ('a option, string) result
(** Like {!field}, but an absent or [Null] field is [None] (as is any
    field of a value that is not an object). *)

val optional :
  (string -> t -> ('a, string) result) ->
  string ->
  t ->
  ('a option, string) result
(** [optional read name obj] is [read name obj] as [Some], or [None]
    when the field is absent or [Null] (the typed counterpart of
    {!opt}: [optional int "limit" params]). *)

val int : string -> t -> (int, string) result
val bool : string -> t -> (bool, string) result
val string : string -> t -> (string, string) result

val float : string -> t -> (float, string) result
(** A number: an [Int] reads as its float. *)

val list :
  string -> (t -> ('a, string) result) -> t -> ('a list, string) result
(** [list name decode obj] maps every element of the list field [name]
    through [decode], stopping at the first [Error]. *)
