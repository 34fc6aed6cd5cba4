(** The staged, resumable ProxioN analyzer — the engine-backed
    replacement for the retired monolithic pipeline entry point.

    An analyzer owns a batch-scheduled work queue of contract addresses
    plus two cross-run dedup caches (detection results per bytecode hash,
    collision results per bytecode-hash pair).  Each contract flows
    through the six stages — dedup-check, proxy-probe, logic-resolve,
    classify, func-collision, storage-collision — with a structured event
    emitted per stage (wall-clock timing, API-call and emulation-step
    deltas) through the {!Engine} subscriber interface.

    Archive probes run through a {!Resilience.Transport} — one logical
    connection per contract, salted by the subject address, so seeded
    fault injection and retry jitter are independent of batch composition
    and worker count.  Failure degrades gracefully and {e classified}: an
    exception escaping a stage dead-letters that contract with its fault
    class ([Transient] / [Permanent] / [Budget_exhausted]), stage and
    attempt count (with [Stage_errored]/[Item_skipped] events) instead of
    aborting the run; {!requeue} sends the recoverable ones
    around again.

    Each completed contract yields one {!Analysis.entry}: its report and
    the archive calls analyzing it cost.  The report's statistics, a
    checkpoint's results and the daemon's store all read that record;
    nothing counts a contract's cost a second time.

    Runs are interruptible and resumable: {!checkpoint} serializes the
    pending queue, completed entries, the dead-letter list and both dedup
    caches; {!restore} rebuilds the analyzer so the finished report is
    byte-identical to an uninterrupted run over the same chain.  This
    module owns that format: one flat document, read back through the
    {!Report.Json} readers.  The resilience
    configuration and the worker count are execution parameters, not
    analysis state: they are never serialized, so a checkpoint's bytes
    do not depend on them, and one written under any fault plan or
    worker count restores under any other. *)

type t

val create :
  ?config:Analysis.Config.t ->
  ?resilience:Resilience.Transport.config ->
  ?crash_plan:Engine.crash_plan ->
  chain:Chain.t ->
  source:Analysis.source_lookup ->
  unit ->
  t
(** A fresh analyzer with an empty queue and empty caches.  [resilience]
    (default {!Resilience.Transport.default_config}: no injection, no
    budgets) configures every per-contract archive connection; its
    [step_budget] additionally arms a live per-item fuel watchdog inside
    the emulation probes (see {!Evm.Interp.guard_fuel}).  [crash_plan]
    is handed to the engine (see {!Engine.create}). *)

val config : t -> Analysis.Config.t
val engine : t -> (Evm.Address.t, Analysis.entry) Engine.t
(** The underlying engine, for direct access to scheduling state. *)

val instrument :
  ?trace:Obs.Trace.t -> ?log:Obs.Log.t -> Obs.Metrics.t -> t -> unit
(** Wire full telemetry into this analyzer: the engine-event recorders
    ({!Engine.Telemetry}) plus the analyzer's own families — RPC attempts
    per method/outcome, node requests per method, per-item EVM
    step/fuel histograms, probe call-frame counts, dedup hits, and
    (volatile) Keccak-memo statistics.  Workers record per-item
    observations straight into [registry]; every such series is
    integer-valued, so its sums are exact in any order and a snapshot
    with volatile families suppressed is byte-identical at every worker
    count.  [trace] adds
    span collection on the collector's clock, which the engine then
    times with: run > batch > item > stage spans stamped by the
    engine's own timing, and RPC-dispatch and EVM-frame detail for a
    1-in-16 subset of items chosen by address hash.  [log] attaches the
    structured progress backend.  Call once, before {!run}. *)

val set_request_ctx : t -> Obs.Trace.ctx option -> unit
(** Set (or clear, with [None]) the request-scoped trace context.
    While set, {e every} item is treated as trace-sampled and every
    span the analyzer records — run, batch, item, stage, RPC dispatch,
    EVM frame — carries the context's [trace_id] with the context's
    span as [parent_span_id]: the daemon sets it around a
    [query]/[advance] so the analysis it causes, endpoint attempts
    (including quorum votes and hedges) and probe frames land inside
    the request span.  Callers must serialize: one request-scoped
    analysis at a time (the daemon's advance lock does this). *)

val set_transport_observer :
  t -> (Resilience.Transport.event -> unit) option -> unit
(** Observe every raw transport event (dispatches, retries, breaker
    flips, quorum disagreements, hedges) from whatever worker domain
    produced it — the daemon's flight recorder taps this.  The callback
    must be thread-safe and cheap. *)

(** {1 Scheduling} *)

val submit : t -> Evm.Address.t list -> unit
(** Enqueue an address batch (FIFO; duplicates are analyzed again but
    hit the dedup cache). *)

val submit_all : t -> unit
(** Enqueue every contract on the chain, in deployment order — the
    default population a whole-chain scan analyzes. *)

val run : ?max_batches:int -> t -> unit
(** Process queued batches; [max_batches] bounds this call, leaving the
    rest of the queue for a later [run] or a {!checkpoint}.  Each worker
    analyzes on a {!Chain.worker_view} built at the chain's head when the
    run starts, so probes observe the block number and timestamp a fresh
    analyzer would, also after the chain advanced under a live one.  The
    views' archive calls are added to the chain's
    {!Chain.api_call_count}. *)

val pending : t -> int
val subscribe : t -> (Engine.event -> unit) -> unit
val stage_totals_table : t -> string

val skipped : t -> Evm.Address.t Engine.skip_record list
(** The dead-letter list: every contract dropped by error isolation with
    its classification, failing stage and attempt count. *)

val skipped_pairs : t -> (string * string) list
(** [(subject, message)] projection of {!skipped}. *)

val requeue : ?classes:Engine.skip_class list -> t -> int
(** Push dead-letter entries of the given classes (default: the
    recoverable [Transient], [Budget_exhausted] and [Worker_crashed])
    back onto the work queue; returns how many moved.  Run the analyzer
    again to retry them. *)

(** {1 Results} *)

val report : t -> Analysis.report
(** {!Analysis.report_of_entries} over everything completed so far, with
    {!unique_codes}.  After the queue drains, this equals what
    {!Pipeline.analyze} returns for the same addresses and
    configuration. *)

val drain_results : t -> Analysis.entry list
(** Entries completed since the previous drain, in completion
    (= submission) order; clears the underlying engine's result buffer so
    a long-lived analyzer — the query daemon reuses one across
    increments, moving each entry into its store — stays bounded and its
    {!checkpoint}s stay small.  {!report} called after a drain covers
    only undrained results. *)

val unique_codes : t -> int
(** Distinct code hashes the dedup cache currently holds (the
    [s_unique_codes] statistic). *)

val invalidate_code_hash : t -> string -> unit
(** Drop the dedup cache's detection entry for a (raw, 32-byte) code
    hash, forcing the next submitted subject with that hash to re-probe
    fresh.  The daemon's incremental mode calls this for every hash
    whose cache {e owner} (the earliest deployed holder) is dirty, so
    re-analysis repopulates the cache exactly as a cold run would. *)

(** {1 Checkpointing} *)

val checkpoint : ?landscape:string -> t -> Report.Json.t
(** One flat document: the configuration without [domains]
    ([verify_storage], [dedup], [diamond_extension], [batch_size]), the
    engine state ([batches_done], [queue], [results] as
    {!Serialize.entry_to_json} records, [skipped]) and both dedup caches.
    Its bytes are the same at any worker count.  With [landscape] (the
    fingerprint of the landscape being analyzed, e.g.
    [Dataset.Generate.fingerprint]) the document is schema-stamped with
    it — a scan journal's version gate.  A checkpoint nested in another
    stamped record goes unstamped; that record's stamp gates it. *)

val restore :
  ?landscape:string ->
  ?batch_size:int ->
  ?domains:int ->
  ?resilience:Resilience.Transport.config ->
  ?crash_plan:Engine.crash_plan ->
  chain:Chain.t ->
  source:Analysis.source_lookup ->
  Report.Json.t ->
  (t, string) result
(** Rebuild from a {!checkpoint} against the same chain and source
    oracle, through the same constructor as {!create}.  With
    [landscape], a checkpoint with another [schema_version], or stamped
    for another landscape (or not stamped at all), is refused with an
    [Error] naming what it found.  [batch_size] overrides the
    checkpointed one.  [domains] (default 1), [resilience] and
    [crash_plan] configure the resumed run exactly as in {!create}:
    they are execution parameters, never part of the checkpoint, and
    changing them never changes the resumed run's output.

    Total over arbitrary JSON input: every truncation or corruption of
    a checkpoint — missing fields, wrong types, unknown stage or class
    names, bad hex, a non-positive batch size — comes back as
    [Error _]; no input makes it raise. *)
