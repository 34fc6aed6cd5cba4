(** The one clock of the system: every timing, timestamp and wait.

    Production code reads {!real} (a thin wrapper over
    [Unix.gettimeofday]).  A {e virtual} clock's reads are a pure
    function of how often it has been read and how far it has been
    moved, so tests pin stage timings, span stamps and log timestamps to
    exact, reproducible values, and the resilience layer waits on one
    (retry backoff, injected latency, breaker cooldowns) without
    spending wall-clock time, which keeps fault-injected runs
    replayable. *)

type t

val real : t
(** [now] reads [Unix.gettimeofday]; waits really sleep. *)

val virtual_ : ?start:float -> ?auto_step:float -> unit -> t
(** A deterministic clock starting at [start] (default 0).  Every {!now}
    read returns the current value and then advances it by [auto_step]
    (default 0) — with a non-zero step, consecutive reads are strictly
    increasing and any start/stop bracket measures exactly [auto_step]
    seconds per intervening read.  Reads and waits are atomic, so a
    virtual clock is safe to share across worker domains (though
    cross-domain read interleavings are scheduling dependent;
    deterministic tests read from one domain). *)

val now : t -> float
(** Current time in seconds. *)

val sleep : t -> float -> unit
(** Wait a non-negative duration (negative values are ignored): a
    virtual clock moves forward by it, the real one sleeps. *)

val advance_to : t -> float -> unit
(** Wait until a deadline; no-op when it already passed. *)
