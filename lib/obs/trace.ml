module Json = Report.Json

(* Recorded events are serialized at once, one per line, into the
   document's text: kept in a buffer, or written to a file.  A file that
   failed to write stops taking events; the error surfaces at [close],
   not inside the analysis that recorded the span. *)
type sink = Memory of Buffer.t | File of out_channel

type t = {
  clock : Clock.t;
  lock : Mutex.t;
  sink : sink;
  mutable recorded : int;
  mutable closed : bool;
  mutable failed : string option;
  held : (string, Json.t list ref) Hashtbl.t;
      (* trace id (hex) -> its events since [hold], newest first *)
}

let header = "{\"traceEvents\":["
let footer = "\n],\"displayTimeUnit\":\"ms\"}\n"

let make clock sink =
  {
    clock;
    lock = Mutex.create ();
    sink;
    recorded = 0;
    closed = false;
    failed = None;
    held = Hashtbl.create 4;
  }

let create ?(clock = Clock.real) () = make clock (Memory (Buffer.create 4096))

let to_file ?(clock = Clock.real) path =
  match open_out path with
  | exception Sys_error e -> Error e
  | oc ->
      output_string oc header;
      Ok (make clock (File oc))

let clock t = t.clock

let write t oc =
  match t.sink with
  | File _ -> invalid_arg "Obs.Trace.write: a file collector streams its events"
  | Memory b ->
      Mutex.lock t.lock;
      output_string oc header;
      Buffer.output_buffer oc b;
      output_string oc footer;
      Mutex.unlock t.lock

let close t =
  match t.sink with
  | Memory _ -> ()
  | File oc ->
      Mutex.lock t.lock;
      let first = not t.closed in
      t.closed <- true;
      Mutex.unlock t.lock;
      if first then
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () ->
            Option.iter (fun e -> raise (Sys_error e)) t.failed;
            output_string oc footer;
            flush oc)

let flush_file t =
  match t.sink with
  | Memory _ -> ()
  | File oc ->
      Mutex.lock t.lock;
      (if (not t.closed) && t.failed = None then
         try flush oc with Sys_error e -> t.failed <- Some e);
      Mutex.unlock t.lock

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)
(* ------------------------------------------------------------------ *)

let micros s =
  (* Timestamps are whole microseconds where possible so the JSON stays
     integer-valued and byte-stable; fractional values are kept exact —
     Perfetto accepts them, and the nesting invariants (span end inside
     parent) would break under rounding. *)
  let us = s *. 1e6 in
  if Float.is_integer us && Float.abs us < 1e15 then Json.Int (int_of_float us)
  else Json.Float us

let complete ?(tid = 0) ?(cat = "proxion") ?(args = []) t ~name ~ts ~dur =
  let ev =
    Json.Obj
      ([
         ("name", Json.String name);
         ("cat", Json.String cat);
         ("ph", Json.String "X");
         ("ts", micros ts);
         ("dur", micros (Float.max 0.0 dur));
         ("pid", Json.Int 1);
         ("tid", Json.Int tid);
       ]
      @ match args with [] -> [] | args -> [ ("args", Json.Obj args) ])
  in
  let line = Json.to_string ~pretty:false ev in
  Mutex.lock t.lock;
  (if (not t.closed) && t.failed = None then
     let sep = if t.recorded = 0 then "\n" else ",\n" in
     match t.sink with
     | Memory b ->
         Buffer.add_string b sep;
         Buffer.add_string b line
     | File oc -> (
         try
           output_string oc sep;
           output_string oc line
         with Sys_error e -> t.failed <- Some e));
  (if Hashtbl.length t.held > 0 then
     match List.assoc_opt "trace_id" args with
     | Some (Json.String id) ->
         Option.iter (fun evs -> evs := ev :: !evs) (Hashtbl.find_opt t.held id)
     | _ -> ());
  t.recorded <- t.recorded + 1;
  Mutex.unlock t.lock

let count t =
  Mutex.lock t.lock;
  let n = t.recorded in
  Mutex.unlock t.lock;
  n

(* ------------------------------------------------------------------ *)
(* Span contexts.                                                      *)
(* ------------------------------------------------------------------ *)

(* splitmix64, inlined: lib/obs sits below lib/dataset in the build, so
   it cannot reuse Dataset.Prng.  Same constants, same stream. *)
let splitmix64 (x : int64) : int64 =
  let open Int64 in
  let z = add x 0x9E3779B97F4A7C15L in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

type ctx = { trace_id : int64; span_id : int64 }

let id_to_hex (id : int64) = Printf.sprintf "%016Lx" id

let is_hex_id s =
  String.length s = 16
  && String.for_all (fun c -> (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) s

let id_of_hex s = if is_hex_id s then Some (Int64.of_string ("0x" ^ s)) else None

type gen = { mutable g_state : int64; g_lock : Mutex.t }

let gen ~seed = { g_state = Int64.of_int seed; g_lock = Mutex.create () }

let next_ctx g =
  Mutex.lock g.g_lock;
  let s1 = Int64.add g.g_state 1L in
  let s2 = Int64.add s1 1L in
  g.g_state <- s2;
  Mutex.unlock g.g_lock;
  { trace_id = splitmix64 s1; span_id = splitmix64 s2 }

let child ctx ~index =
  {
    ctx with
    span_id = splitmix64 (Int64.logxor ctx.span_id (Int64.of_int (index + 1)));
  }

let ctx_args ?parent ctx =
  [
    ("trace_id", Json.String (id_to_hex ctx.trace_id));
    ("span_id", Json.String (id_to_hex ctx.span_id));
  ]
  @
  match parent with
  | Some p -> [ ("parent_span_id", Json.String (id_to_hex p.span_id)) ]
  | None -> []

(* ------------------------------------------------------------------ *)
(* Held traces.                                                        *)
(* ------------------------------------------------------------------ *)

let hold t ctx =
  Mutex.lock t.lock;
  Hashtbl.replace t.held (id_to_hex ctx.trace_id) (ref []);
  Mutex.unlock t.lock

let release t ctx =
  let id = id_to_hex ctx.trace_id in
  Mutex.lock t.lock;
  let evs = Option.fold ~none:[] ~some:( ! ) (Hashtbl.find_opt t.held id) in
  Hashtbl.remove t.held id;
  Mutex.unlock t.lock;
  Json.List (List.rev evs)

(* ------------------------------------------------------------------ *)
(* Live spans.                                                         *)
(* ------------------------------------------------------------------ *)

type span = {
  sp_trace : t;
  sp_ctx : ctx;
  sp_parent : ctx option;
  sp_name : string;
  sp_cat : string;
  sp_tid : int;
  sp_ts : float;
  mutable sp_finished : bool;
}

let start_span ?(tid = 0) ?(cat = "request") ?parent_ctx ~ctx t name =
  {
    sp_trace = t;
    sp_ctx = ctx;
    sp_parent = parent_ctx;
    sp_name = name;
    sp_cat = cat;
    sp_tid = tid;
    sp_ts = Clock.now t.clock;
    sp_finished = false;
  }

let finish_span ?(args = []) sp =
  if not sp.sp_finished then begin
    sp.sp_finished <- true;
    let t = sp.sp_trace in
    complete ~tid:sp.sp_tid ~cat:sp.sp_cat
      ~args:(ctx_args ?parent:sp.sp_parent sp.sp_ctx @ args)
      t ~name:sp.sp_name ~ts:sp.sp_ts
      ~dur:(Clock.now t.clock -. sp.sp_ts);
    flush_file t
  end
