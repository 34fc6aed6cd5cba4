(** Retry policy: capped exponential backoff with deterministic jitter.

    Delays are virtual ({!Obs.Clock}) seconds — the transport advances the
    clock instead of sleeping — and the jitter is a pure function of
    [(seed, attempt)], so two runs with the same policy and seeds back
    off identically.  This is the piece that makes "retry until the
    transient clears" compatible with byte-identical chaos replays. *)

type policy = {
  max_attempts : int;  (** Total attempts including the first (>= 1). *)
  base_delay : float;  (** Delay before attempt 2, in virtual seconds. *)
  multiplier : float;  (** Exponential growth factor per attempt. *)
  max_delay : float;  (** Cap on any single delay. *)
  jitter : float;  (** Fractional spread: delay x (1 ± jitter). *)
}

val default : policy
(** 5 attempts, 50 ms base, x2 growth, 2 s cap, ±25% jitter. *)

val policy :
  ?max_attempts:int ->
  ?base_delay:float ->
  ?multiplier:float ->
  ?max_delay:float ->
  ?jitter:float ->
  unit ->
  policy

val delay : policy -> seed:int -> attempt:int -> float
(** Backoff before retrying after failed [attempt] (1-based).
    Deterministic: equal inputs, equal delay. *)
