(** A staged, batched analysis engine run by a pool of domain workers.

    The engine is the generic half of ProxioN's production pipeline: it
    owns a persistent work queue, schedules items in fixed-size batches,
    and emits structured per-stage events (start/finish/error with
    wall-clock timing and counter deltas) to any number of subscribers.
    The domain half — what the six stages actually do — is supplied as a
    [process] callback, so this library depends on nothing but the report
    substrate and can drive any per-item analysis.

    Every batch runs on one path.  With [~domains:n] a pool of [n]
    workers — the coordinator plus [n - 1] helper domains; at [n = 1]
    the pool has no helpers — takes the batch, with no dependency on
    domainslib: each worker claims the next chain with one atomic
    fetch-and-add on a shared cursor until none is left, so the tail
    balances itself, and buffers its events, aggregates and outcomes in
    the item's result slot.  The coordinator performs a single
    input-order merge at the batch barrier: results, skip records,
    per-stage aggregates, and every subscriber-visible event come out in
    input order, so reports and checkpoints are byte-identical whatever
    the worker count.  An optional [~key] groups items of a batch into
    chains that are processed in input order on one worker — callers
    whose [process] shares caches keyed by that value (the analyzer's
    bytecode-hash dedup) use this to keep cache effects
    deterministic.

    Failures are isolated and {e classified}: an [Error] or exception
    from [process] records the item in a dead-letter list with its
    failure class ([Transient], [Permanent], [Budget_exhausted] or
    [Worker_crashed]), the stage it died in and the attempts consumed,
    and the batch carries on.  Because the record keeps the original
    item, {!requeue} can push recoverable entries back onto the queue —
    the retry-skipped loop a long crawl runs between sessions.

    Workers are {e supervised}: an exception no [process] should be
    expected to survive ([Stack_overflow], [Out_of_memory], or an
    injected {!Crash_injected}) ends only the item it escaped from.  The
    dying worker records its in-flight item as a [Worker_crashed] dead
    letter first, its supervisor resumes the rest of the crashed
    worker's chain, and the input-order merge is preserved — a run with
    crashes reports byte-identically at every worker count given the
    same kill decisions.

    Runs are resumable: {!state} hands over the pending queue, the
    completed results, the dead-letter list (items included) and the
    batch counter as a plain value, and {!create} given that value
    continues exactly where the engine it came from stopped.  The engine
    keeps no serialized form; the caller owns the checkpoint format. *)

(** The six analysis stages of the ProxioN pipeline, in execution order
    (§4–§5 of the paper): bytecode-hash dedup lookup, emulation probe,
    Algorithm-1 logic resolution, standard classification, and the two
    per-pair collision checks. *)
type stage =
  | Dedup_check
  | Proxy_probe
  | Logic_resolve
  | Classify
  | Func_collision
  | Storage_collision

val stage_name : stage -> string
val stage_of_name : string -> stage option
val all_stages : stage list

(** Wall-clock and counter deltas measured across one stage execution. *)
type timing = {
  t_elapsed : float;  (** Seconds. *)
  t_api_calls : int;  (** getStorageAt-style API calls spent. *)
  t_steps : int;  (** EVM instructions interpreted. *)
  t_retries : int;  (** Transport retries taken during the stage. *)
}

(** {1 Skip classification}

    Why an item failed decides what happens to it next: [Transient]
    failures (rate limits, timeouts, node errors that outlived the retry
    budget) and [Budget_exhausted] ones (a per-item call/step budget ran
    out) are recoverable — {!requeue} sends them around again;
    [Permanent] failures (malformed input, logic errors) are not.
    [Worker_crashed] marks an item whose worker domain died under it
    (fatal exception or injected kill); it is recoverable — the crash is
    attributed to the worker, not the item. *)
type skip_class = Transient | Permanent | Budget_exhausted | Worker_crashed

val skip_class_name : skip_class -> string
(** ["transient"], ["permanent"], ["budget-exhausted"],
    ["worker-crashed"] — the names checkpoints and reports use. *)

val skip_class_of_name : string -> skip_class option

(** {1 Crash injection}

    The deterministic stand-in for a worker death, used by the crash
    harness: a plan decides — as a pure function of (seed, subject) —
    which items' workers die the instant the item is picked up, raising
    {!Crash_injected} from inside the worker.  Each subject is killed at
    most once per plan, so a {!requeue} after the run re-processes every
    casualty successfully and the final figures converge to the
    fault-free run's.  Because decisions depend only on the subject, the
    same plan produces the same casualties at every [domains] count. *)

type crash_plan

exception Crash_injected of string
(** Raised inside a worker by an armed {!crash_plan}; carries the
    subject.  Treated exactly like [Stack_overflow]/[Out_of_memory] by
    the supervisor. *)

val crash_plan :
  ?seed:int -> ?rate:float -> ?subjects:string list -> unit -> crash_plan
(** [crash_plan ~seed ~rate ~subjects ()] kills the worker holding any
    subject listed in [subjects], plus a pseudo-random [rate] fraction of
    all other subjects (seeded by [seed], default 1; [rate] defaults to
    0).  Raises [Invalid_argument] if [rate] is outside [0, 1]. *)

(** What a [process] callback returns in its [Error] case. *)
type skip_reason = {
  sr_message : string;
  sr_stage : stage option;  (** Stage the failure is attributed to. *)
  sr_attempts : int;  (** Transport attempts consumed (>= 1). *)
  sr_class : skip_class;
}

val permanent : ?stage:stage -> ?attempts:int -> string -> skip_reason
val transient : ?stage:stage -> ?attempts:int -> string -> skip_reason
val budget_exhausted : ?stage:stage -> ?attempts:int -> string -> skip_reason
(** Constructors; [attempts] defaults to 1. *)

(** A dead-letter entry: the skip reason plus the original item, so the
    entry can be requeued, also after a checkpoint round-trip. *)
type 'item skip_record = {
  sk_item : 'item;
  sk_subject : string;
  sk_message : string;
  sk_stage : stage option;
  sk_attempts : int;
  sk_class : skip_class;
}

(** Events carry the id of the worker that ran the work: 0 is the
    coordinator (and the only id seen with [domains:1]); helper domains
    are 1..domains-1.  Worker-side events are buffered and delivered from
    the coordinator at the batch barrier, in input order — subscribers
    never run concurrently; with no subscriber nothing is buffered.  A
    timed event carries the [start] its timing read from the engine's
    clock (see {!set_clock}), in seconds, so a subscriber can place it on
    that clock's timeline whenever the event is delivered. *)
type event =
  | Run_started of { pending : int; batch_size : int; domains : int }
  | Batch_started of { index : int; size : int }
  | Batch_finished of {
      index : int;
      size : int;
      start : float;
      elapsed : float;
    }
  | Stage_finished of {
      stage : stage;
      subject : string;
      start : float;
      timing : timing;
      worker : int;
    }
  | Stage_errored of {
      stage : stage;
      subject : string;
      message : string;
      start : float;
      elapsed : float;
      worker : int;
    }
      (** The stage raised; the item is about to be skipped. *)
  | Retry_attempted of {
      subject : string;
      attempt : int;
      reason : string;
      delay : float;  (** Virtual seconds of backoff. *)
      worker : int;
    }
      (** The resilient transport is retrying a transient failure. *)
  | Circuit_opened of {
      endpoint : string;
      subject : string;
      failures : int;
      worker : int;
    }
      (** A connection's circuit breaker tripped. *)
  | Circuit_closed of { endpoint : string; subject : string; worker : int }
      (** A half-open probe succeeded; the circuit recovered. *)
  | Item_skipped of {
      subject : string;
      message : string;
      fault_class : skip_class;
      attempts : int;
      worker : int;
    }
      (** Error isolation: the item moved to the dead-letter list, the
          batch continues. *)
  | Item_finished of {
      subject : string;
      start : float;
      elapsed : float;
      worker : int;
    }
      (** One item's [process] call returned, whatever its outcome; it
          follows the item's stage events and precedes its
          [Item_skipped]. *)
  | Run_finished of {
      processed : int;
      skipped : int;
      start : float;
      elapsed : float;
    }

type ('item, 'res) t

(** Everything a resumed run needs from the engine it continues. *)
type ('item, 'res) state = {
  st_queue : 'item list;  (** Pending items, head first. *)
  st_results : 'res list;  (** Completed results, in completion order. *)
  st_skipped : 'item skip_record list;
      (** Dead letters, in occurrence order. *)
  st_batches : int;  (** Batches completed. *)
}

type ('item, 'res) ctx
(** What a [process] callback receives: a handle identifying the engine
    and the worker executing the item.  Stage timing and custom events
    routed through the ctx are buffered for the input-order merge. *)

val create :
  ?batch_size:int ->
  ?domains:int ->
  ?key:('item -> string) ->
  ?crash_plan:crash_plan ->
  ?state:('item, 'res) state ->
  subject:('item -> string) ->
  process:(('item, 'res) ctx -> 'item -> ('res, skip_reason) result) ->
  unit ->
  ('item, 'res) t
(** An engine that starts from [state] (default: empty).  [batch_size]
    defaults to 32; [domains] (default 1) sizes the per-batch worker
    pool; [key] groups same-key items of a batch into one chain, run in
    input order on one worker (see the module docs); [crash_plan] arms
    seeded worker kills (tests only); [subject] renders an item for
    event reporting; [process] analyzes one item (typically calling
    {!timed_stage} for each stage it runs).  [process] must touch shared
    mutable state only in ways that are safe under the declared
    [domains] count.  The worker count is never part of [state]: an
    engine resumed at any [domains] finishes with the same results. *)

val set_clock : ('item, 'res) t -> Obs.Clock.t -> unit
(** Time every later stage, item, batch and run with this clock (until
    then {!Obs.Clock.real}).  The analyzer hands it the span collector's
    clock, so engine spans share one time base with the rest of the
    trace. *)

(** {1 Events} *)

val subscribe : ('item, 'res) t -> (event -> unit) -> unit
(** Register a subscriber.  Subscribers are invoked synchronously, in
    registration order, for every subsequent event, always from the
    coordinator thread. *)

val emit_from : ('item, 'res) ctx -> event -> unit
(** Deliver an event to every subscriber through the ctx (how [process]
    callbacks add domain-specific events to the scheduling ones the
    engine emits): buffered in the item's slot and delivered at the
    batch barrier, in input order.  This is how the analyzer surfaces
    transport events ([Retry_attempted], [Circuit_opened]...) without
    breaking the determinism of the merged stream. *)

val worker_id : ('item, 'res) ctx -> int
(** Id of the worker running this item: 0 for the coordinator,
    1..domains-1 for helper domains. *)

val current_stage : ('item, 'res) ctx -> stage option
(** The stage the item is currently inside (set by {!timed_stage} on
    entry, cleared on success) — what exception-path skip records are
    attributed to. *)

val timed_stage :
  ('item, 'res) ctx ->
  stage:stage ->
  subject:string ->
  ?api_calls:(unit -> int) ->
  ?steps:(unit -> int) ->
  ?retries:(unit -> int) ->
  (unit -> 'a) ->
  'a
(** [timed_stage ctx ~stage ~subject f] runs [f] and, when it returns,
    emits a [Stage_finished] event.  [api_calls], [steps] and
    [retries] are monotonic counter readers sampled before and after [f];
    their deltas land in the event's {!timing} and in the per-stage
    aggregates.  When [f] raises, a [Stage_errored] event is emitted and
    the exception is re-raised (the scheduler then dead-letters the
    item).  The readers must observe worker-local counters (the analyzer
    passes each worker's private chain-view and transport counters); the
    events and aggregates are buffered for the ordered merge. *)

(** {1 Scheduling} *)

val submit : ('item, 'res) t -> 'item list -> unit
(** Append items to the work queue (FIFO). *)

val pending : ('item, 'res) t -> int
val batch_size : ('item, 'res) t -> int
val domains : ('item, 'res) t -> int
val batches_done : ('item, 'res) t -> int

val run : ?max_batches:int -> ('item, 'res) t -> unit
(** Drain the queue batch by batch ([max_batches] bounds how many
    batches this call may process — the interruption point a checkpoint
    naturally follows).  Items whose [process] raises or returns [Error]
    are recorded in the dead-letter list — with
    [Stage_errored]/[Item_skipped] events — instead of aborting the
    batch.  Each batch is spread across the worker pool and merged in
    input order at its end; the batch boundary is therefore also the
    pool's barrier, and the {!state} taken between batches is the same
    at every worker count. *)

val results : ('item, 'res) t -> 'res list
(** Completed results in completion order (= submission order). *)

val drain_results : ('item, 'res) t -> 'res list
(** Like {!results}, but also clears the engine's result buffer: each
    completed result is returned exactly once across successive drains.
    Long-lived callers (the query daemon) drain after every [run] so
    the engine — and the {!state} a checkpoint is written from — stay
    bounded regardless of how many increments have been processed. *)

(** {1 Dead letters} *)

val skipped : ('item, 'res) t -> 'item skip_record list
(** Every item dropped by error isolation, in occurrence order, with its
    classification and the original item. *)

val skipped_pairs : ('item, 'res) t -> (string * string) list
(** [(subject, message)] projection of {!skipped} — the compact form
    reports print. *)

val crashes : ('item, 'res) t -> int
(** How many worker deaths the supervisor has absorbed (injected kills,
    stack overflows...) since this engine was created.  Not part of
    {!state}. *)

val requeue : ?classes:skip_class list -> ('item, 'res) t -> int
(** Move dead-letter entries whose class is in [classes] (default
    [[Transient; Budget_exhausted; Worker_crashed]] — the recoverable
    ones) back onto the work queue, preserving their original relative
    order, and return how many moved.  A subsequent {!run} retries them;
    entries that fail again are re-recorded (with fresh attempt
    counts). *)

(** {1 Per-stage aggregates} *)

val stage_totals_table : ('item, 'res) t -> string
(** [(stage, invocations, summed timing)] for every stage observed so
    far, in {!all_stages} order, as an aligned report table. *)

(** {1 Resuming} *)

val state : ('item, 'res) t -> ('item, 'res) state
(** The queue, results, dead letters and batch counter as they stand;
    {!create} [~state] continues from them. *)

(** {1 Task channel}

    A multi-producer/multi-consumer closeable channel for long-lived
    domain-parallel accept loops (the query daemon feeds client
    connections to worker domains through one; the batch scheduler's
    pool parks its helpers on one between batches).
    [pop] blocks until an element arrives or the channel has been closed
    {e and} drained: a close never drops queued elements — consumers
    drain everything in flight before their [pop] returns [None].

    Waking is deliberately minimal: [push] signals exactly one sleeping
    consumer (one element can satisfy at most one of them — a broadcast
    would stampede the whole idle pool through the mutex), [push_many]
    coalesces the wakeups for a burst, and only [close] broadcasts,
    because every blocked consumer must observe it. *)
module Task_channel : sig
  type 'a t

  val create : unit -> 'a t
  val push : 'a t -> 'a -> unit

  val push_many : 'a t -> 'a list -> unit
  (** Enqueue a burst under one lock acquisition; wakes one sleeper per
      element, coalesced into a single broadcast when several arrive. *)

  val close : 'a t -> unit
  (** Idempotent; wakes every blocked [pop]. *)

  val pop : 'a t -> 'a option
  (** Block for the next element; [None] once closed and empty. *)

  val pop_opt : 'a t -> 'a option
  (** Non-blocking variant: [None] when currently empty. *)

  val length : 'a t -> int
end

(** {1 Telemetry}

    Adapters from the engine {!event} stream to the obs layer (the span
    builder lives with the analyzer's RPC and EVM spans).  Both
    subscribe on the coordinator, where the deterministic merge has
    already serialized worker-side events into input order — so metric
    updates (including float backoff sums) happen in input order, and
    registry snapshots are byte-identical across [domains] counts once
    volatile (wall-clock) families are suppressed. *)
module Telemetry : sig
  val instrument : Obs.Metrics.t -> ('item, 'res) t -> unit
  (** Register the [proxion_*] metric families (stage runs/latency/API
      calls/steps, retries, backoff, breaker transitions, dead-letter
      classes, batch/run timings, worker crashes) in [registry] and
      subscribe a recorder for them.  Wall-clock-derived families are
      registered volatile. *)

  val attach_log : Obs.Log.t -> ('item, 'res) t -> unit
  (** Subscribe the structured progress backend: run/batch lines at
      [Info], item skips and stage errors at [Warn], per-stage and
      per-retry detail at [Debug].  Retry and breaker events are
      summarized once per batch (count + total backoff) instead of one
      line per attempt, so a high fault rate cannot flood the sink. *)
end
