(** The resident analysis daemon.

    Performs (or recovers) a full landscape analysis at startup, holds
    the results hot in a {!Store}, and answers wire-protocol queries
    ({!Wire}, doc/API.md) over TCP at interactive latency: a listener
    domain accepts connections and feeds them through an
    {!Engine.Task_channel} to a pool of worker domains, each serving
    its connection request-by-request.

    {b Incremental watch mode.}  {!advance} applies the next scripted
    chain advance ({!Advance}), computes the dirty set ({!Tracker}),
    invalidates the affected dedup-cache entries, re-analyzes only the
    dirty + new subjects on the resident analyzer, and patches the
    store — producing a store byte-identical to a cold full re-run over
    the advanced chain.  Each increment is committed to the journal
    (when configured) as a delta on the base snapshot the cold start
    wrote, so a SIGKILL'd daemon restarts warm: the deltas are folded
    onto the base, the landscape and advances are replayed
    deterministically, the analyzer and store are restored, and no
    re-analysis runs.

    {b Overload robustness.}  An admission gate at the listener sheds
    connections beyond [max_conns] (or beyond [queue_limit] waiting in
    the work queue, reject-newest) with a structured
    {!Wire.err_overloaded} reply instead of queueing unbounded.  Every
    connection carries an idle deadline (the whole next frame must
    arrive within [idle_timeout_ms] — slowloris defense) and every
    request a deadline budget ([request_deadline_ms], reported as
    {!Wire.err_deadline_exceeded}).  SIGTERM/[shutdown] flips the
    daemon to {e draining}: readiness drops first, the listener sheds,
    in-flight requests finish (or deadline out) within
    [drain_grace_ms], the journal is flushed, and {!wait} returns.
    All deadline decisions read the injectable [clock], so tests can
    drive them deterministically.

    {b Observability.}  Per-method request counters and latency
    histograms, in-flight/open-connection gauges, shed and
    deadline-exceeded counters, readiness/draining gauges, and a
    structured access log are maintained on the supplied registry/log
    ({!Obs}).

    {b Request-scoped tracing.}  Every request is handled under a trace
    context ({!Obs.Trace.ctx}): adopted from the wire [trace] field
    when the client sent one (the daemon's request span joins the
    client's trace), otherwise drawn from a seeded deterministic
    generator ([trace_seed]).  With a trace collector attached
    ({!create}'s [?trace]) the request span, the run/batch/item/stage
    spans of the analysis it caused, the archive endpoint attempts
    (quorum votes, hedges) and the EVM emulation frames all carry the
    same [trace_id], on the collector's one clock; the max-latency
    exemplar on the request histogram names that id, and requests
    slower than [slow_ms] log their full span tree (held back from a
    streaming collector until the request's log line is written).  An always-on flight recorder
    ({!Obs.Flight}) keeps the last [flight_capacity] notable events
    (requests, advances, reorgs, breaker flips, quorum quarantines,
    sheds, journal commits) and dumps them to [flight_dump] on drain,
    stop and worker crash — see doc/OBSERVABILITY.md. *)

module Config : sig
  type t = {
    host : string;  (** Bind address (default 127.0.0.1). *)
    port : int;  (** 0 picks an ephemeral port (see {!val-port}). *)
    backlog : int;
    workers : int;  (** Worker domains serving connections. *)
    max_frame : int;
        (** Per-frame byte ceiling, for requests read and responses
            written alike. *)
    max_conns : int;
        (** Open-connection cap; excess connections are shed at accept
            with {!Wire.err_overloaded} (default 64). *)
    queue_limit : int;
        (** Accepted-but-unclaimed connection cap (reject-newest,
            default 32). *)
    idle_timeout_ms : int;
        (** A connection whose next frame does not complete within this
            window is closed (default 10000). *)
    request_deadline_ms : int;
        (** Per-request handler budget; exceeding it answers
            {!Wire.err_deadline_exceeded} (default 5000). *)
    drain_grace_ms : int;
        (** How long {!stop} waits for in-flight work before cutting
            connections (default 5000). *)
    clock : Obs.Clock.t;
        (** Clock for idle/deadline decisions (default
            {!Obs.Clock.real}); inject a virtual clock for
            deterministic tests. *)
    journal : string option;  (** Journal path. *)
    journal_fsync : bool;
        (** Fsync journal commits to stable storage (default [true]);
            turn off only for tests and benchmarks.  The mode is
            recorded in the journal header. *)
    advance_seed : int;
    advance_spec : Advance.spec;
    analysis : Proxion.Analysis.Config.t;
        (** Resident analyzer config.  Its [batch_size] and [domains]
            also govern a warm start: neither comes from the journal. *)
    resilience : Resilience.Transport.config;
        (** Chain-transport config for the resident analyzer: endpoint
            pool, quorum, fault plans, budgets (default
            {!Resilience.Transport.default_config} — single implicit
            endpoint, no injection). *)
    slow_ms : int option;
        (** Requests slower than this log their full span tree at
            [Warn] (default [None]: disabled). *)
    flight_capacity : int;
        (** Flight-recorder ring size (default 256). *)
    flight_dump : string option;
        (** Dump the flight ring to this path (atomically, tmp+rename)
            on drain, stop and worker crash (default [None]). *)
    trace_seed : int;
        (** Seed for the daemon's root trace-context generator; requests
            that carry no wire context draw from this stream (default
            11). *)
  }

  val default : t
  val with_host : string -> t -> t
  val with_port : int -> t -> t
  val with_backlog : int -> t -> t
  val with_workers : int -> t -> t
  val with_max_frame : int -> t -> t
  val with_max_conns : int -> t -> t
  val with_queue_limit : int -> t -> t
  val with_idle_timeout_ms : int -> t -> t
  val with_request_deadline_ms : int -> t -> t
  val with_drain_grace_ms : int -> t -> t
  val with_clock : Obs.Clock.t -> t -> t
  val with_journal : string option -> t -> t
  val with_journal_fsync : bool -> t -> t
  val with_advance_seed : int -> t -> t
  val with_advance_spec : Advance.spec -> t -> t
  val with_analysis : Proxion.Analysis.Config.t -> t -> t
  val with_resilience : Resilience.Transport.config -> t -> t
  val with_slow_ms : int option -> t -> t
  val with_flight_capacity : int -> t -> t
  val with_flight_dump : string option -> t -> t
  val with_trace_seed : int -> t -> t

  val validate : t -> (t, Report.Validate.error) result
  (** The shared config gate ({!Report.Validate}). *)
end

type t

val create :
  ?config:Config.t ->
  ?registry:Obs.Metrics.t ->
  ?log:Obs.Log.t ->
  ?trace:Obs.Trace.t ->
  Dataset.Generate.t ->
  (t, string) result
(** Load the daemon: validate the config, open the journal (when
    configured), then either recover warm from its base snapshot and
    the deltas committed after it, or run the initial full analysis and
    commit it as a base.  The landscape must be freshly generated from
    the same generation config across restarts — recovery replays the
    journaled advances onto it to reproduce the chain state — and a
    journal whose base carries another landscape's
    [Dataset.Generate.fingerprint] is refused with an [Error] naming
    both fingerprints, as is a gap in the deltas' advance index.
    [trace] attaches a span collector: request spans and the spans of
    the analyses they cause land in it.  The caller owns it (a
    streaming collector is closed with {!Obs.Trace.close} after
    {!stop}). *)

val recovered : t -> bool
(** Whether {!create} restored from the journal instead of analyzing
    cold. *)

val store : t -> Store.t
val registry : t -> Obs.Metrics.t
val advances_applied : t -> int

val reorgs : t -> (int * Advance.reorg) list
(** Reorgs rolled back so far, oldest first, each tagged with the
    1-based advance number that carried it.  Rebuilt deterministically
    on warm recovery (the [reorgs] wire method serves this list). *)

val unique_codes : t -> int
(** Dedup-cache size of the resident analyzer (serialized against
    concurrent increments). *)

val is_draining : t -> bool
(** Whether the daemon has entered its drain phase. *)

val flight : t -> Obs.Flight.t
(** The always-on flight recorder (the [flight] wire method serves its
    contents). *)

type advance_result = {
  adv_summary : Advance.summary;
  adv_dirty : int;  (** Existing subjects re-analyzed. *)
  adv_new : int;  (** New subjects analyzed. *)
  adv_retracted : int;
      (** Findings retracted because a reorg orphaned their subject. *)
}

val advance : ?ctx:Obs.Trace.ctx -> t -> advance_result
(** Apply one scripted advance and incrementally patch the store;
    commits a delta to the journal when configured (the orphans it
    removed, the entries it upserted, the analyzer checkpoint), and past
    the journal's size threshold compacts it to a fresh base.  [ctx] is the
    request-scoped trace context of the [advance] wire request driving
    this increment: while set, the spans of its re-analysis — run,
    batch, item, stage, RPC and EVM — carry its [trace_id].

    When the advance opens with a seeded reorg
    ({!Advance.spec.reorg_depth} > 0), the rollback path runs first:
    the dirty set is computed over the pre-retraction store (so a
    retracted dedup owner still propagates its code hash to surviving
    twins), orphaned subjects are removed from the store and their
    findings counted as retracted, reverted and orphaned addresses are
    treated as writes for invalidation, and only surviving dirty
    subjects plus the re-mined contracts are re-analyzed.  The
    resulting store is byte-identical to a cold full re-run over the
    post-reorg chain, and the reorg's removals are committed in the
    advance's delta — a SIGKILL mid-rollback recovers warm to the same
    bytes. *)

val handle : ?deadline:float -> t -> string -> string option * string
(** [handle t request_payload] is [(method, response_payload)] — the
    full dispatch path minus the socket, exposed for in-process tests
    and for instrumentation ([method] is [None] when the request did
    not parse far enough to name one).  The request and its params are
    read through the {!Report.Json} readers ({!Wire.request_of_string}):
    a [null] param takes its default, [severity] wins over
    [min_severity], and any reader [Error] in the params is
    {!Wire.err_invalid_params}.  [deadline] is an absolute time
    on the config clock bounding the handler; past it the response is
    {!Wire.err_deadline_exceeded} (multi-step [advance] requests check
    between steps — completed steps stay committed).  A response larger
    than [max_frame] is replaced by {!Wire.err_oversized}. *)

(** {1 Serving} *)

val start : t -> (unit, string) result
(** Bind, listen, spawn the listener + worker domains, and ignore
    [SIGPIPE] (a client closing mid-response must surface as [EPIPE],
    not kill the process). *)

val port : t -> int
(** The bound port (after {!start}); useful with [port = 0]. *)

val request_drain : t -> unit
(** Flip to draining without blocking: readiness drops {e first}, then
    the listener sheds every new connection with
    {!Wire.err_overloaded}; in-flight requests finish normally and
    non-health requests are refused.  Idempotent; safe from a signal
    handler.  {!wait} then performs the actual shutdown. *)

val request_stop : t -> unit
(** {!request_drain} plus the hard stop flag: in-flight reads abort at
    the next poll wakeup instead of waiting out the grace.  Safe from a
    signal handler or an RPC worker. *)

val stop : t -> unit
(** Drain and stop: close the listening socket, give in-flight work
    [drain_grace_ms] to finish, then cut remaining connections, join
    all domains, and close the journal.  Idempotent. *)

val wait : t -> unit
(** Block until a drain or stop is requested (by a [shutdown] request,
    a signal handler calling {!request_drain}/{!request_stop}, or
    another thread), then run {!stop} to completion. *)
