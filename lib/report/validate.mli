(** The shared configuration-validation vocabulary.

    Every configuration record with invariants — [Analysis.Config],
    [Transport.config], [Serve.Config] — validates through this one
    error type, so the batch and server paths report misconfiguration
    the same way and cannot drift.  Builders stay total ([default |>
    with_*] never raises); [validate] is the single gate callers run
    before using a config. *)

type error = {
  e_field : string;  (** The offending field, e.g. ["batch_size"]. *)
  e_value : string;  (** The rejected value, rendered. *)
  e_reason : string;  (** Why it was rejected. *)
}

val error : field:string -> value:string -> reason:string -> error
val to_string : error -> string
(** ["<field> = <value>: <reason>"]. *)

val positive : field:string -> int -> (unit, error) result
(** Require [> 0]. *)

val non_negative : field:string -> int -> (unit, error) result
(** Require [>= 0]. *)

val at_least : field:string -> min:int -> int -> (unit, error) result
val unit_interval : field:string -> float -> (unit, error) result
(** Require [0.0 <= v <= 1.0]. *)

val non_empty : field:string -> string -> (unit, error) result

val all : (unit, error) result list -> (unit, error) result
(** First error wins; [Ok ()] when every check passes. *)
