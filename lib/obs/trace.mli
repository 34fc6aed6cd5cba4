(** Span tracer exporting Chrome trace-event JSON.

    Collects nested complete ("X") spans (request → run → batch → item →
    stage → RPC dispatch / EVM emulation frame) and writes them in the
    Chrome [traceEvents] format, loadable in [about:tracing] and
    {{:https://ui.perfetto.dev}Perfetto}.

    Timestamps are supplied by callers in {e seconds} (the writer
    converts to the microseconds the format wants), all read from the
    collector's {!clock}: the analysis engine times its stages, items,
    batches and runs with it once a collector is attached, and the live
    request spans and the RPC/EVM detail read it too, so every span of
    a trace sits on one time base and nests where its work nested.
    Under a virtual clock the whole trace is deterministic.

    A collector either keeps its events in memory ({!create}) or
    streams each one to a file as it is recorded ({!to_file}), keeping
    none — bar the traces a caller {!hold}s — so a long-running traced
    daemon does not grow with its trace.  Recording is thread-safe. *)

type t

val create : ?clock:Clock.t -> unit -> t
(** A collector keeping every event in memory.  [clock] (default
    {!Clock.real}) stamps live spans and is the time base handed to the
    engine. *)

val to_file : ?clock:Clock.t -> string -> (t, string) result
(** A collector streaming to the file at the path: the document is
    opened at once and each event is written as it is recorded; {!close}
    completes it. *)

val clock : t -> Clock.t
(** The clock every span of this collector is stamped with. *)

val complete :
  ?tid:int ->
  ?cat:string ->
  ?args:(string * Report.Json.t) list ->
  t ->
  name:string ->
  ts:float ->
  dur:float ->
  unit
(** Record a complete ("X") span: [ts] start and [dur] duration in
    seconds.  [tid] (default 0) selects the track; [cat] (default
    ["proxion"]) the category; [args] become the span's argument
    object. *)

val count : t -> int
(** Number of events recorded so far. *)

(** {1 Span contexts}

    Request-scoped correlation ids, splitmix64-derived so they are
    deterministic for a given seed.  A context is a
    [(trace_id, span_id)] pair of 64-bit ids rendered as 16 lowercase
    hex characters on the wire; child spans derive their [span_id] from
    the parent's, keeping the whole tree reproducible. *)

type ctx = { trace_id : int64; span_id : int64 }

type gen
(** A seeded generator of root contexts (thread-safe). *)

val gen : seed:int -> gen
val next_ctx : gen -> ctx
(** The next root context in the generator's splitmix64 stream. *)

val child : ctx -> index:int -> ctx
(** Deterministic child context: same [trace_id], [span_id] derived
    from the parent's span id and the 0-based child [index]. *)

val id_to_hex : int64 -> string
(** 16 lowercase hex characters, zero-padded. *)

val id_of_hex : string -> int64 option
(** Inverse of {!id_to_hex}; [None] unless exactly 16 lowercase hex
    characters. *)

val ctx_args : ?parent:ctx -> ctx -> (string * Report.Json.t) list
(** The [trace_id]/[span_id] (and [parent_span_id], when [parent] is
    given) argument fields identifying a span. *)

(** {1 Live spans}

    Live spans are opened and closed around real work with the
    collector's clock and carry their context in the span args, so a
    request's child spans can be joined across processes by
    [trace_id]. *)

type span

val start_span :
  ?tid:int -> ?cat:string -> ?parent_ctx:ctx -> ctx:ctx -> t -> string -> span
(** Open a live span with context [ctx].  [parent_ctx] records its
    parent, e.g. a client's context carried on the wire.  [cat]
    defaults to ["request"]. *)

val finish_span : ?args:(string * Report.Json.t) list -> span -> unit
(** Record the span as a complete event with its context args ([args]
    appended).  Idempotent: only the first call records.  A streaming
    collector also flushes its file, so a finished request's spans are
    on disk by the time its response is sent. *)

(** {1 Held traces} *)

val hold : t -> ctx -> unit
(** Keep a copy of every event recorded from now on whose [trace_id]
    arg is [ctx]'s, until {!release} — how the daemon's slow-request log
    gets a request's span tree from a collector that keeps nothing. *)

val release : t -> ctx -> Report.Json.t
(** The events held for [ctx]'s trace, in recording order, as a JSON
    list, and stop holding it.  The flat list plus the
    [parent_span_id] links encode the span tree. *)

(** {1 Output} *)

val micros : float -> Report.Json.t
(** Seconds as trace-format microseconds: an integer JSON value when
    the microsecond count is whole (byte-stable), a float otherwise. *)

val write : t -> out_channel -> unit
(** Write an in-memory collector's events as one
    [{"traceEvents": [...], "displayTimeUnit": "ms"}] document — the
    bytes a streaming collector leaves in its file.  Raises
    [Invalid_argument] on a streaming collector. *)

val close : t -> unit
(** Complete and close a streaming collector's file (idempotent; events
    recorded afterwards are dropped).  No-op in memory.  Raises
    [Sys_error] when the file cannot be written. *)
