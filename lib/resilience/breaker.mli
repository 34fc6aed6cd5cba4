(** A per-endpoint circuit breaker over the virtual clock.

    Closed -> Open after [failure_threshold] consecutive failures; Open
    fail-fasts until the cooldown elapses on the clock, then
    Half_open admits a single probe: success closes the circuit,
    failure re-opens it with a fresh cooldown.  Because the cooldown is
    virtual, an open circuit never stalls a run — it only spaces probe
    attempts out deterministically. *)

type state = Closed | Open | Half_open

val state_name : state -> string

type config = {
  failure_threshold : int;  (** Consecutive failures that trip the circuit. *)
  cooldown : float;  (** Virtual seconds an open circuit stays open. *)
}

val default_config : config
(** Threshold 5, cooldown 5 virtual seconds. *)

val config : ?failure_threshold:int -> ?cooldown:float -> unit -> config

(** State transitions observers can subscribe to (the analyzer turns
    [Opened]/[Recovered] into engine events). *)
type transition =
  | Opened of { failures : int }  (** Tripped (also on a failed probe). *)
  | Probing  (** Cooldown elapsed; the next call is the probe. *)
  | Recovered  (** A half-open probe succeeded; circuit closed. *)

type t

val create :
  ?config:config -> clock:Obs.Clock.t -> endpoint:string -> unit -> t
val state : t -> state
val endpoint : t -> string

val open_count : t -> int
(** Times the circuit tripped (including re-opens from failed probes). *)

val on_transition : t -> (transition -> unit) -> unit

val await_ready : t -> unit
(** Make the breaker admit the next call: no-op when closed or half-open;
    when open, advances the virtual clock to the cooldown deadline and
    moves to half-open. *)

val record_success : t -> unit
val record_failure : t -> unit

val quarantine : t -> unit
(** Trip the circuit immediately, regardless of the failure streak —
    used when an endpoint is caught disagreeing with the quorum, which
    is stronger evidence of a bad node than any transient failure.
    No-op when already open. *)
