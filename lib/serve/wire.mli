(** The daemon's wire protocol: length-prefixed JSON-RPC over TCP.

    Framing: each message is a 4-byte big-endian payload length followed
    by that many bytes of UTF-8 JSON.  A frame longer than the
    negotiated maximum ({!default_max_frame} unless the server was
    configured otherwise) is a protocol violation — the server answers
    with {!err_oversized} and closes the connection.  The same ceiling
    bounds responses: one that would exceed it is replaced by an
    {!err_oversized} error carrying the request's [id], and the
    connection stays open.

    Requests: [{"proxion_rpc": 1, "id": <int>, "method": <string>,
    "params": <object>}].  Responses echo the [id] and carry either
    [result] or [error {code, message}], plus the report
    [schema_version] so clients can reject documents they do not
    understand.  One request is answered per frame, in order; clients
    may pipeline.  See doc/API.md for the method catalogue. *)

val protocol_version : int
(** The [proxion_rpc] marker value, 1. *)

val default_max_frame : int
(** 4 MiB. *)

(** {1 Framing} *)

val encode_frame : ?max_frame:int -> string -> string
(** Prefix a payload with its 4-byte big-endian length.  Raises
    [Invalid_argument] when the payload exceeds [max_frame]. *)

type read_error =
  | Closed  (** Clean EOF at a frame boundary. *)
  | Torn of { wanted : int; got : int }
      (** EOF mid-header or mid-payload. *)
  | Oversized of int  (** Declared length above the maximum. *)
  | Timed_out
      (** The receive deadline expired (or the caller's abort check
          fired) before the frame completed — the slowloris defense. *)

val read_error_to_string : read_error -> string

val write_frame : ?max_frame:int -> Unix.file_descr -> string -> unit
(** Write one frame, handling short writes and retrying [EINTR].
    Raises [Unix.Unix_error] on I/O failure and [Invalid_argument] on
    payloads above [max_frame] (default {!default_max_frame}). *)

val read_frame :
  ?max_frame:int ->
  ?clock:Obs.Clock.t ->
  ?deadline:float ->
  ?should_abort:(unit -> bool) ->
  Unix.file_descr ->
  (string, read_error) result
(** Read one frame, handling short reads and retrying [EINTR].  Raises
    [Unix.Unix_error] on I/O failure; returns [Error _] for EOF and
    protocol violations.

    [deadline] is an {e absolute} time on [clock] (default
    {!Obs.Clock.real}) by which the whole frame — header and payload —
    must have arrived; a trickling writer cannot hold the reader past
    it.  [should_abort] is consulted at every poll wakeup and after
    every partial read, so a draining server can cut a half-received
    frame immediately.  Both are only effective when the descriptor has
    [SO_RCVTIMEO] set (the poll granularity); both report as
    {!Timed_out}.  Without either option, a blocking read behaves as
    before and [EAGAIN] propagates as [Unix.Unix_error]. *)

(** {1 Errors} *)

type error = { code : int; message : string }

val err_parse : int
(** -32700: payload is not valid JSON. *)

val err_invalid_request : int
(** -32600: not a well-formed request. *)

val err_method_not_found : int
(** -32601. *)

val err_invalid_params : int
(** -32602. *)

val err_internal : int
(** -32000. *)

val err_unknown_address : int
(** 1000: address not in the store. *)

val err_oversized : int
(** 1001: request or response frame above the size limit. *)

val err_overloaded : int
(** 1002: the daemon shed this connection or request — admission cap,
    full work queue, or draining for shutdown.  Retry against another
    replica or after backoff. *)

val err_deadline_exceeded : int
(** 1003: the per-request deadline budget expired before the handler
    finished. *)

(** {1 Messages} *)

type trace_ctx = { tc_trace_id : string; tc_span_id : string }
(** A request's trace context: 16-lowercase-hex-char splitmix64 ids
    ({!Obs.Trace.id_to_hex}).  Optional on the wire; the daemon adopts
    it so its spans join the client's trace. *)

type request = {
  rq_id : Report.Json.t;  (** Echoed verbatim; conventionally an int. *)
  rq_method : string;
  rq_params : Report.Json.t;
      (** [Null] when omitted; as sent otherwise (the daemon answers a
          non-object with invalid params). *)
  rq_trace : trace_ctx option;  (** [trace] field, when present. *)
}

val request_to_string :
  ?trace:trace_ctx ->
  id:int ->
  meth:string ->
  params:(string * Report.Json.t) list ->
  unit ->
  string
(** Serialize a request payload (the client side).  [trace] attaches a
    trace context as the [trace] field. *)

val request_of_string : string -> (request, error) result
(** Parse and validate a request payload (the server side) through the
    {!Report.Json} readers.  A payload that is not JSON (a bad unicode
    escape included) is {!err_parse}; any reader [Error] in the envelope
    is {!err_invalid_request}.  An absent or [null] [id], [params] or
    [trace] reads as absent.  A [trace] field, when present, must be an
    object with 16-hex-char [trace_id]/[span_id] strings
    ({!Obs.Trace.id_of_hex}) — anything else is {!err_invalid_request}
    (totality: arbitrary trace payloads parse or reject, never crash). *)

val response_ok : id:Report.Json.t -> Report.Json.t -> string
(** A [result] response payload, stamped with the schema version. *)

val response_error : id:Report.Json.t -> error -> string

type response = {
  rs_id : Report.Json.t;
  rs_schema_version : int option;
  rs_result : (Report.Json.t, error) result;
}

val response_of_string : string -> (response, string) result
(** Parse a response payload (the client side) through the
    {!Report.Json} readers.  [result] may be any value; [error] must be
    an object with an integer [code] and a string [message]. *)
