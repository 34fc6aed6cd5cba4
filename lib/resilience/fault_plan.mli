(** Seeded, deterministic fault plans for the resilient transport.

    A {!spec} is a pure description of an unreliable provider: a
    transient-fault probability, a mean per-call virtual latency, and
    connection-drop windows (ranges of per-connection call indices during
    which every call fails).  {!instantiate} turns a spec into a decision
    stream; every decision is a pure function of [(seed, salt, attempt
    index)] — no wall clock, no global state — so a chaos run injects the
    same faults on every machine, at every worker count, on every replay.

    The transport opens one plan instance per logical connection (the
    analyzer: one per analyzed contract, salted by its address), which is
    what makes injection independent of how work interleaves across
    domains. *)

type spec = {
  seed : int;
  fault_rate : float;  (** Probability of a transient fault per attempt. *)
  mean_latency : float;
      (** Mean injected virtual latency per dispatched call (seconds on
          the transport's virtual {!Obs.Clock}); actual draw is uniform
          in [0.5x, 1.5x]. *)
  drop_windows : (int * int) list;
      (** [(start, len)] ranges of per-connection call indices during
          which every attempt fails with a connection-drop
          [Node_error]. *)
}

val none : spec
(** No faults, no latency: the pass-through plan. *)

val spec :
  ?seed:int ->
  ?fault_rate:float ->
  ?mean_latency:float ->
  ?drop_windows:(int * int) list ->
  unit ->
  spec

type fault = { f_kind : Chain_rpc.transient_kind; f_detail : string }

type decision = {
  d_latency : float;  (** Virtual seconds to charge for this attempt. *)
  d_fault : fault option;  (** [Some] = inject instead of dispatching. *)
}

type t
(** One instantiated decision stream (a "connection"). *)

val instantiate : ?salt:int -> spec -> t
(** [salt] diversifies the stream across connections sharing a spec
    (deterministically — same salt, same stream). *)

val next : t -> decision
(** Decide the next attempt; advances the stream. *)

val calls_decided : t -> int
(** Attempts decided so far on this connection. *)
