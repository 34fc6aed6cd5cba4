(** The resilient (and deterministically unreliable) RPC transport.

    Serves {!Chain_rpc.request}s — typed reads such as
    {!Chain_rpc.storage_at} and the string facade's
    {!Chain_rpc.request} alike, through one entry per call shape
    ({!call}, {!call_batch}) — with the full production client
    stack ProxioN needs against real archive nodes: seeded fault
    injection ({!Fault_plan}), capped exponential backoff with
    deterministic jitter ({!Retry}), per-endpoint circuit breakers
    ({!Breaker}), per-connection call/step budgets — and, since the
    chain side became an untrusted input, an N-endpoint provider pool
    with health-ranked deterministic failover, hedged dispatch and
    K-of-N quorum cross-validation.  All waiting happens on a virtual
    {!Obs.Clock}, one per connection, so fault-injected runs are
    replayable and cost no wall-clock time.

    Accounting identity: faults are injected {e before} dispatching to
    the node, so an injected failure never consumes an API call, and
    the node is dispatched once per {e logical} request no matter how
    many endpoints relay the answer or how many attempts a failed
    quorum takes — the per-call counters (the paper's §6.1 metric) of a
    fault-injected run equal the fault-free run's once every transient
    is retried to success.

    Quorum safety: with [quorum >= 2] a returned answer always gathered
    at least [quorum] identical endpoint answers (equal typed values).
    A Byzantine endpoint's fabricated answer is a deterministic function
    of the canonical answer's wire string, its own identity and seed,
    decoded back through the request's codec — the only place the
    transport touches hex — so two liars lie differently and
    fabrications can never assemble a quorum; a disagreeing endpoint is
    quarantined through its breaker on the spot.

    A transport instance models one logical connection; callers that
    analyze many subjects open one per subject (salted), which keeps
    injection independent of scheduling interleavings. *)

(** One provider in the pool: identity, its own fault stream, how many
    blocks its view of the head lags the canonical chain, and the rate
    at which it fabricates (seeded, deterministic) wrong answers. *)
type endpoint_spec = {
  ep_name : string;
  ep_plan : Fault_plan.spec option;  (** Fail-stop faults. [None]: honest. *)
  ep_lag : int;  (** Blocks behind the canonical head (0 = synced). *)
  ep_byzantine : float;  (** Wrong-answer probability per served call. *)
  ep_byz_seed : int;  (** Seed of the corruption stream. *)
}

val endpoint :
  ?plan:Fault_plan.spec ->
  ?lag:int ->
  ?byzantine:float ->
  ?byz_seed:int ->
  string ->
  endpoint_spec
(** [endpoint name]: an honest, synced endpoint unless overridden. *)

type config = {
  plan : Fault_plan.spec option;
      (** Fault plan of the implicit single ["archive"] endpoint when
          [endpoints] is empty.  [None]: nothing injected. *)
  policy : Retry.policy;
  breaker : Breaker.config;  (** Applied to every endpoint's breaker. *)
  call_budget : int option;
      (** Max node dispatches per connection; exceeding raises
          {!Budget_exhausted}. *)
  step_budget : int option;
      (** Max EVM steps per connection, enforced by the caller through
          {!check_step_budget}. *)
  endpoints : endpoint_spec list;
      (** The provider pool; [[]] means the classic single ["archive"]
          endpoint driven by [plan]. *)
  quorum : int;
      (** Identical answers required before a response is consumed
          (clamped to the pool size; default 1). *)
  hedge_after : float option;
      (** Virtual seconds after which a slow request is raced at the
          next-ranked endpoint (quorum-1 pools only; [None]: never). *)
}

val default_config : config
(** No plan, {!Retry.default}, {!Breaker.default_config}, no budgets,
    single implicit ["archive"] endpoint, quorum 1, no hedging. *)

val config :
  ?plan:Fault_plan.spec ->
  ?policy:Retry.policy ->
  ?breaker:Breaker.config ->
  ?call_budget:int ->
  ?step_budget:int ->
  ?endpoints:endpoint_spec list ->
  ?quorum:int ->
  ?hedge_after:float ->
  unit ->
  config

val validate_config : config -> (config, Report.Validate.error) result
(** Reject non-positive attempt counts, thresholds, or budgets; a
    quorum outside [1 .. pool size]; duplicate or empty endpoint names;
    negative lag; a Byzantine rate outside [0, 1]. *)

(** Observability events, delivered synchronously to [on_event]. *)
type event =
  | Retry of { attempt : int; reason : string; delay : float }
  | Circuit_opened of { endpoint : string; failures : int }
  | Circuit_closed of { endpoint : string }
  | Dispatched of {
      endpoint : string;
      meth : string;
      fault : string option;
      latency : float;
    }
      (** One endpoint round-trip attempt completed: [fault] carries
          the injected fault kind when the attempt was swallowed before
          reaching the node, [latency] the injected virtual latency.
          Telemetry counts RPC attempts per method and endpoint from
          this. *)
  | Hedged of { meth : string; primary : string; secondary : string }
      (** A slow request was raced at a second endpoint. *)
  | Quorum_disagreement of { meth : string; endpoint : string }
      (** [endpoint]'s answer lost the quorum vote; it has been
          quarantined (its breaker tripped). *)

type stats = {
  dispatched : int;  (** Requests actually served by the node. *)
  faults_seen : int;  (** Injected faults observed. *)
  retries : int;  (** Backoff waits taken. *)
  gave_up : int;  (** Requests whose retry budget ran out. *)
  breaker_opens : int;  (** Summed across the pool. *)
  virtual_elapsed : float;  (** Total virtual seconds on the clock. *)
  disagreements : int;  (** Answers that lost a quorum vote. *)
  hedges : int;  (** Requests raced at a second endpoint. *)
  quorum_failures : int;  (** Attempts where no answer reached quorum. *)
}

(** Per-endpoint counters, in pool order. *)
type endpoint_stats = {
  eps_name : string;
  eps_served : int;  (** Answers this endpoint produced. *)
  eps_faulted : int;  (** Fail-stop faults it injected. *)
  eps_disagreed : int;  (** Quorum votes it lost. *)
  eps_opens : int;  (** Times its breaker tripped (incl. quarantines). *)
  eps_health : float;  (** Current EWMA health score in [0, 1]. *)
}

exception Rpc_error of Chain_rpc.error
(** A request failed for good: its retries ran out or the node rejected
    it.  Raised by callers that treat any failed request as fatal for
    the operation (Algorithm 1); the analyzer dead-letters it with the
    error's class. *)

exception Budget_exhausted of { scope : string; budget : int; spent : int }
(** A per-connection budget ran out; the engine classifies this as a
    [Budget_exhausted] dead-letter, distinct from transient faults. *)

type t

val create :
  ?config:config ->
  ?salt:int ->
  ?on_event:(event -> unit) ->
  chain:Chain.t ->
  unit ->
  t
(** A fresh connection.  [salt] diversifies the fault streams and
    jitter across connections sharing one plan (the analyzer salts with
    the subject address). *)

val direct : Chain.t -> t
(** A pass-through connection: no faults, no budgets — behaviourally
    identical to calling {!Chain_rpc} directly. *)

val call : t -> 'a Chain_rpc.request -> ('a, Chain_rpc.error) result
(** One request with retry/breaker/pool handling.  Transient failures
    are retried up to [policy.max_attempts] with backoff; within one
    attempt a quorum-1 pool fails over endpoint by endpoint in health
    rank order, while a quorum-K pool consults every admitted endpoint
    and requires K identical answers.  Permanent errors
    ([Invalid_params], [Unsupported_height], [Unknown_method]) return
    immediately — they are completed round-trips, not connection
    failures, so they also close the serving breaker's failure
    streak. *)

val call_batch :
  t -> 'a Chain_rpc.request list -> ('a, Chain_rpc.error) result list
(** Batch semantics with partial-failure recovery: each round retries
    only the entries that failed transiently, and responses always come
    back in request order.  Entries still failing when attempts run out
    surface their last [Transient] error in place. *)

val head_height : t -> int
(** The pool's confirmed head: the [quorum]-th largest height reported
    by admitted endpoints, where a lagging endpoint reports the
    canonical head minus its lag.  Monotonic — once confirmed, a height
    is never un-reported, so a lagging majority stalls the consumer
    instead of rolling it backwards. *)

val retries : t -> int
(** Monotonic retry counter — the reader stage timings sample. *)

val last_attempts : t -> int
(** Attempts consumed by the most recent operation (>= 1), for
    dead-letter records. *)

val pool_size : t -> int
val quorum : t -> int

val check_step_budget : t -> steps:int -> unit
(** Raise {!Budget_exhausted} when [steps] exceeds the configured step
    budget (no-op otherwise). *)

val stats : t -> stats
val endpoint_stats : t -> endpoint_stats list
