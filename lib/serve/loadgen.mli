(** The concurrent-client load generator behind [proxion bench]: N
    client domains each fire a deterministic mix of queries over their
    own connection and record per-request wall-clock latency.

    {b Hostile mode.}  {!run_hostile} additionally spawns seeded
    misbehaving clients — slowloris writers, half-open fragments,
    never-read-the-response flooders, oversized-frame declarations, and
    connect-and-idle squatters — and measures the {e goodput} the
    well-behaved clients still get while the attack runs.  Each
    attacker draws its timing and sizes from its own splitmix64 stream,
    so a given [(seed, attackers)] pair replays the same schedule of
    abuse. *)

type stats = {
  lg_clients : int;
  lg_requests : int;  (** Completed round-trips (goodput numerator). *)
  lg_errors : int;  (** Requests abandoned after errors. *)
  lg_shed : int;
      (** Structured {!Wire.err_overloaded} replies observed (each was
          retried on a fresh connection). *)
  lg_deadline : int;  (** {!Wire.err_deadline_exceeded} replies. *)
  lg_elapsed : float;  (** Wall-clock seconds for the whole sweep. *)
  lg_rps : float;  (** Completed requests per second. *)
  lg_p50_ms : float;
  lg_p90_ms : float;
  lg_p99_ms : float;
}

val run :
  ?host:string ->
  ?timeout_ms:int ->
  ?trace_seed:int ->
  port:int ->
  clients:int ->
  requests:int ->
  addresses:Evm.Address.t list ->
  unit ->
  (stats, string) result
(** [requests] per client; [addresses] seeds the per-address query mix
    (is_proxy / logic_history / collisions interleaved with get_status
    and list_findings pages).  [timeout_ms] (default 10000) bounds
    every connect/send/receive so the generator cannot hang on a
    wedged server; a shed or transport failure is retried on a fresh
    connection up to a bounded attempt budget, then counted in
    [lg_errors].  [trace_seed] attaches a deterministic trace context
    to every request (one per logical request, stable across shed
    retries; per-client splitmix64 streams offset by client index), so
    a traced daemon's spans join the sweep's ids. *)

val to_json : stats -> Report.Json.t

(** {1 Hostile personas} *)

type persona =
  | Slow_writer  (** Valid frame, trickled one byte at a time. *)
  | Half_open  (** Declares a frame, sends a fragment, goes silent. *)
  | Never_reads  (** Pipelines requests, never reads a response. *)
  | Oversized_flooder  (** Declares frames beyond the ceiling. *)
  | Connect_idle  (** Occupies a connection slot and says nothing. *)

val persona_name : persona -> string

type hostile_stats = {
  hs_attackers : int;
  hs_rounds : int;  (** Attack rounds completed across all attackers. *)
  hs_shed : int;  (** Rounds answered with a structured [overloaded]. *)
  hs_answered : int;  (** Rounds answered with any other structured reply. *)
  hs_cut : int;  (** Rounds the server cut (or the attacker timed out). *)
  hs_connect_failures : int;
}

val hostile_to_json : hostile_stats -> Report.Json.t

val run_hostile :
  ?host:string ->
  ?timeout_ms:int ->
  port:int ->
  clients:int ->
  requests:int ->
  attackers:int ->
  seed:int ->
  addresses:Evm.Address.t list ->
  unit ->
  (stats * hostile_stats, string) result
(** Run {!run}'s well-behaved sweep while [attackers] hostile clients
    (persona round-robin by index, streams derived from [seed]) abuse
    the same daemon; attackers stop once the well-behaved sweep
    finishes.  The returned {!stats} is the goodput under attack. *)
