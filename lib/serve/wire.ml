module Json = Report.Json

let protocol_version = 1
let default_max_frame = 4 * 1024 * 1024

(* ------------------------------------------------------------------ *)
(* Framing                                                              *)
(* ------------------------------------------------------------------ *)

let encode_frame ?(max_frame = default_max_frame) payload =
  let n = String.length payload in
  if n > max_frame then
    invalid_arg (Printf.sprintf "Wire.encode_frame: %d bytes > max %d" n max_frame);
  let b = Bytes.create (4 + n) in
  Bytes.set_uint8 b 0 ((n lsr 24) land 0xff);
  Bytes.set_uint8 b 1 ((n lsr 16) land 0xff);
  Bytes.set_uint8 b 2 ((n lsr 8) land 0xff);
  Bytes.set_uint8 b 3 (n land 0xff);
  Bytes.blit_string payload 0 b 4 n;
  Bytes.to_string b

type read_error =
  | Closed
  | Torn of { wanted : int; got : int }
  | Oversized of int
  | Timed_out

let read_error_to_string = function
  | Closed -> "connection closed"
  | Torn { wanted; got } ->
      Printf.sprintf "torn frame: wanted %d bytes, got %d" wanted got
  | Oversized n -> Printf.sprintf "oversized frame: %d bytes" n
  | Timed_out -> "receive deadline exceeded"

(* A signal interrupting a blocking read/write (e.g. SIGTERM arriving on
   the serving thread) must never tear a frame: retry the syscall. *)
let rec write_all fd s sent n =
  if sent < n then
    match Unix.write_substring fd s sent (n - sent) with
    | k -> write_all fd s (sent + k) n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s sent n

let write_frame ?max_frame fd payload =
  let s = encode_frame ?max_frame payload in
  write_all fd s 0 (String.length s)

(* Read exactly [n] bytes; [got] counts what arrived before EOF.
   [deadline] is an absolute time on [clock]: a read that would block
   past it fails with `Timeout instead of waiting forever (the fd needs
   SO_RCVTIMEO set for the poll granularity).  [should_abort] is checked
   at every poll wakeup so a draining server can cut a half-written
   frame without waiting out the deadline. *)
let read_exact ?clock ?deadline ?should_abort fd n =
  let clock = Option.value ~default:Obs.Clock.real clock in
  let expired () =
    match deadline with Some d -> Obs.Clock.now clock >= d | None -> false
  in
  let aborted () =
    match should_abort with Some f -> f () | None -> false
  in
  let b = Bytes.create n in
  let rec go off =
    if off = n then Ok (Bytes.to_string b)
    else
      match Unix.read fd b off (n - off) with
      | 0 -> Error (`Eof off)
      | k -> if aborted () || expired () then Error `Timeout else go (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
        when deadline <> None || should_abort <> None ->
          if aborted () || expired () then Error `Timeout else go off
  in
  go 0

let read_frame ?(max_frame = default_max_frame) ?clock ?deadline ?should_abort
    fd =
  match read_exact ?clock ?deadline ?should_abort fd 4 with
  | Error (`Eof 0) -> Error Closed
  | Error (`Eof got) -> Error (Torn { wanted = 4; got })
  | Error `Timeout -> Error Timed_out
  | Ok header ->
      let n =
        (Char.code header.[0] lsl 24)
        lor (Char.code header.[1] lsl 16)
        lor (Char.code header.[2] lsl 8)
        lor Char.code header.[3]
      in
      if n > max_frame then Error (Oversized n)
      else if n = 0 then Ok ""
      else (
        match read_exact ?clock ?deadline ?should_abort fd n with
        | Ok payload -> Ok payload
        | Error (`Eof got) -> Error (Torn { wanted = n; got })
        | Error `Timeout -> Error Timed_out)

(* ------------------------------------------------------------------ *)
(* Errors                                                               *)
(* ------------------------------------------------------------------ *)

type error = { code : int; message : string }

let err_parse = -32700
let err_invalid_request = -32600
let err_method_not_found = -32601
let err_invalid_params = -32602
let err_internal = -32000
let err_unknown_address = 1000
let err_oversized = 1001
let err_overloaded = 1002
let err_deadline_exceeded = 1003

(* ------------------------------------------------------------------ *)
(* Messages                                                             *)
(* ------------------------------------------------------------------ *)

type trace_ctx = { tc_trace_id : string; tc_span_id : string }

type request = {
  rq_id : Json.t;
  rq_method : string;
  rq_params : Json.t;
  rq_trace : trace_ctx option;
}

let request_to_string ?trace ~id ~meth ~params () =
  Json.to_string ~pretty:false
    (Json.Obj
       ([
          ("proxion_rpc", Json.Int protocol_version);
          ("id", Json.Int id);
          ("method", Json.String meth);
          ("params", Json.Obj params);
        ]
       @
       match trace with
       | None -> []
       | Some tc ->
           [
             ( "trace",
               Json.Obj
                 [
                   ("trace_id", Json.String tc.tc_trace_id);
                   ("span_id", Json.String tc.tc_span_id);
                 ] );
           ]))

let ( let* ) = Result.bind

(* The trace field is strictly optional but, when present, strictly
   validated: a malformed context is an invalid request, never a crash
   and never a silently dropped correlation id. *)
let trace_of_json json =
  let id name =
    let* s = Json.string name json in
    if Obs.Trace.id_of_hex s <> None then Ok s
    else Error "malformed trace context (want 16-hex trace_id/span_id)"
  in
  let* tc_trace_id = id "trace_id" in
  let* tc_span_id = id "span_id" in
  Ok { tc_trace_id; tc_span_id }

(* An absent or [null] [id] or [params] reads as [Null]. *)
let value_or_null name json =
  Result.map (Option.value ~default:Json.Null) (Json.opt name Result.ok json)

let request_of_string payload =
  match Json.parse payload with
  | Error e -> Error { code = err_parse; message = "parse error: " ^ e }
  | Ok (Json.Obj _ as json) ->
      let request =
        let* marker = Json.optional Json.int "proxion_rpc" json in
        let* () =
          match marker with
          | Some v when v = protocol_version -> Ok ()
          | Some _ -> Error "unsupported proxion_rpc version"
          | None -> Error "missing proxion_rpc marker"
        in
        let* rq_method = Json.string "method" json in
        let* rq_id = value_or_null "id" json in
        let* rq_params = value_or_null "params" json in
        let* rq_trace = Json.opt "trace" trace_of_json json in
        Ok { rq_id; rq_method; rq_params; rq_trace }
      in
      Result.map_error
        (fun message -> { code = err_invalid_request; message })
        request
  | Ok _ -> Error { code = err_invalid_request; message = "request must be an object" }

let envelope ~id rest =
  Json.Obj
    ([
       ("proxion_rpc", Json.Int protocol_version);
       ("schema_version", Json.Int Report.Schema.version);
       ("id", id);
     ]
    @ rest)

let response_ok ~id result =
  Json.to_string ~pretty:false (envelope ~id [ ("result", result) ])

let response_error ~id { code; message } =
  Json.to_string ~pretty:false
    (envelope ~id
       [
         ( "error",
           Json.Obj
             [ ("code", Json.Int code); ("message", Json.String message) ] );
       ])

type response = {
  rs_id : Json.t;
  rs_schema_version : int option;
  rs_result : (Json.t, error) result;
}

(* [result] may be any value, [null] included; [error] must be an
   object with an integer [code] and a string [message]. *)
let response_of_string payload =
  match Json.parse payload with
  | Error e -> Error ("response parse error: " ^ e)
  | Ok (Json.Obj _ as json) -> (
      let* rs_id = value_or_null "id" json in
      let rs_schema_version = Report.Schema.version_of json in
      let present name = Result.to_option (Json.field name Result.ok json) in
      match (present "result", present "error") with
      | Some r, None -> Ok { rs_id; rs_schema_version; rs_result = Ok r }
      | None, Some e -> (
          match (Json.int "code" e, Json.string "message" e) with
          | Ok code, Ok message ->
              Ok { rs_id; rs_schema_version; rs_result = Error { code; message } }
          | _ -> Error "malformed error object")
      | Some _, Some _ -> Error "response carries both result and error"
      | None, None -> Error "response carries neither result nor error")
  | Ok _ -> Error "response must be an object"
