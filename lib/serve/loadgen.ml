module Json = Report.Json
module Address = Evm.Address
module Prng = Dataset.Prng

type stats = {
  lg_clients : int;
  lg_requests : int;
  lg_errors : int;
  lg_shed : int;
  lg_deadline : int;
  lg_elapsed : float;
  lg_rps : float;
  lg_p50_ms : float;
  lg_p90_ms : float;
  lg_p99_ms : float;
}

(* The load generator writes to sockets the server may close under it;
   that must surface as EPIPE, not kill the benchmarking process. *)
let ignore_sigpipe () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ | Sys_error _ -> ()

(* One client's work: a deterministic query mix keyed by (client, i). *)
let request_for ~addresses ~client i =
  let n_addr = Array.length addresses in
  match (client + i) mod 5 with
  | 0 -> ("get_status", [])
  | 1 ->
      ( "list_findings",
        [ ("offset", Json.Int (i mod 97)); ("limit", Json.Int 20) ] )
  | k ->
      let addr = addresses.((client + (31 * i)) mod n_addr) in
      let meth =
        match k with
        | 2 -> "is_proxy"
        | 3 -> "logic_history"
        | _ -> "collisions"
      in
      (meth, [ ("address", Json.String (Address.to_hex addr)) ])

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let idx = int_of_float (ceil (p *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) idx))

(* A well-behaved client under overload: a shed ([err_overloaded]) means
   the server closed the connection right after the reply, so back off
   briefly and retry on a fresh one, up to a bounded attempt budget. *)
let max_attempts = 64

let well_behaved_worker ~host ~port ~timeout_ms ~addresses ~requests ~client
    ~trace_gen () =
  let latencies = ref [] in
  let errors = ref 0 and sheds = ref 0 and deadlines = ref 0 in
  let conn = ref None in
  let drop_conn () =
    (match !conn with Some c -> Client.close c | None -> ());
    conn := None
  in
  let ensure () =
    match !conn with
    | Some c -> Some c
    | None -> (
        match Client.connect ~host ~timeout_ms ~port () with
        | Ok c ->
            conn := Some c;
            Some c
        | Error _ -> None)
  in
  for i = 0 to requests - 1 do
    let meth, params = request_for ~addresses ~client i in
    (* One context per logical request, drawn before any attempt: shed
       retries reuse it, so the daemon's trace shows every server-side
       span of the same request under one trace_id. *)
    let trace =
      match trace_gen with
      | None -> None
      | Some g ->
          let c = Obs.Trace.next_ctx g in
          Some
            {
              Wire.tc_trace_id = Obs.Trace.id_to_hex c.Obs.Trace.trace_id;
              tc_span_id = Obs.Trace.id_to_hex c.Obs.Trace.span_id;
            }
    in
    let rec attempt tries =
      if tries >= max_attempts then incr errors
      else
        match ensure () with
        | None ->
            Unix.sleepf 0.002;
            attempt (tries + 1)
        | Some c -> (
            let q0 = Unix.gettimeofday () in
            match Client.call_result ?trace c ~meth ~params with
            | Ok (Ok _) ->
                latencies := (Unix.gettimeofday () -. q0) :: !latencies
            | Ok (Error { Wire.code; _ }) when code = Wire.err_overloaded ->
                incr sheds;
                drop_conn ();
                Unix.sleepf 0.002;
                attempt (tries + 1)
            | Ok (Error { Wire.code; _ })
              when code = Wire.err_deadline_exceeded ->
                incr deadlines;
                incr errors
            | Ok (Error _) -> incr errors
            | Error _ ->
                drop_conn ();
                Unix.sleepf 0.002;
                attempt (tries + 1))
    in
    attempt 0
  done;
  drop_conn ();
  (Array.of_list !latencies, !errors, !sheds, !deadlines)

let run ?(host = "127.0.0.1") ?(timeout_ms = 10_000) ?trace_seed ~port ~clients
    ~requests ~addresses () =
  if clients <= 0 || requests <= 0 then
    Error "clients and requests must be positive"
  else if addresses = [] then Error "no addresses to query"
  else begin
    ignore_sigpipe ();
    let addresses = Array.of_list addresses in
    let t0 = Unix.gettimeofday () in
    let domains =
      List.init clients (fun client ->
          (* Per-client generator, offset by client index: the full set
             of trace_ids a sweep sends is a pure function of
             (trace_seed, clients, requests). *)
          let trace_gen =
            Option.map
              (fun seed -> Obs.Trace.gen ~seed:(seed + (1009 * client)))
              trace_seed
          in
          Domain.spawn
            (well_behaved_worker ~host ~port ~timeout_ms ~addresses ~requests
               ~client ~trace_gen))
    in
    let outcomes = List.map Domain.join domains in
    let elapsed = Unix.gettimeofday () -. t0 in
    let all =
      List.concat_map (fun (lat, _, _, _) -> Array.to_list lat) outcomes
    in
    let sum f = List.fold_left (fun acc o -> acc + f o) 0 outcomes in
    let sorted = Array.of_list all in
    Array.sort compare sorted;
    let total = Array.length sorted in
    let ms p = 1000.0 *. percentile sorted p in
    Ok
      {
        lg_clients = clients;
        lg_requests = total;
        lg_errors = sum (fun (_, e, _, _) -> e);
        lg_shed = sum (fun (_, _, s, _) -> s);
        lg_deadline = sum (fun (_, _, _, d) -> d);
        lg_elapsed = elapsed;
        lg_rps = (if elapsed > 0.0 then float_of_int total /. elapsed else 0.0);
        lg_p50_ms = ms 0.50;
        lg_p90_ms = ms 0.90;
        lg_p99_ms = ms 0.99;
      }
  end

let to_json s =
  Json.Obj
    [
      ("clients", Json.Int s.lg_clients);
      ("requests", Json.Int s.lg_requests);
      ("errors", Json.Int s.lg_errors);
      ("shed", Json.Int s.lg_shed);
      ("deadline_exceeded", Json.Int s.lg_deadline);
      ("elapsed_seconds", Json.Float s.lg_elapsed);
      ("requests_per_second", Json.Float s.lg_rps);
      ("p50_ms", Json.Float s.lg_p50_ms);
      ("p90_ms", Json.Float s.lg_p90_ms);
      ("p99_ms", Json.Float s.lg_p99_ms);
    ]

(* ------------------------------------------------------------------ *)
(* Hostile personas                                                     *)
(* ------------------------------------------------------------------ *)

type persona =
  | Slow_writer
  | Half_open
  | Never_reads
  | Oversized_flooder
  | Connect_idle

let persona_name = function
  | Slow_writer -> "slow_writer"
  | Half_open -> "half_open"
  | Never_reads -> "never_reads"
  | Oversized_flooder -> "oversized_flooder"
  | Connect_idle -> "connect_idle"

let all_personas =
  [| Slow_writer; Half_open; Never_reads; Oversized_flooder; Connect_idle |]

type hostile_stats = {
  hs_attackers : int;
  hs_rounds : int;
  hs_shed : int;  (** Rounds answered with a structured [overloaded]. *)
  hs_answered : int;  (** Rounds answered with any other structured reply. *)
  hs_cut : int;  (** Rounds where the server cut (or timed out) the attack. *)
  hs_connect_failures : int;
}

let hostile_to_json h =
  Json.Obj
    [
      ("attackers", Json.Int h.hs_attackers);
      ("rounds", Json.Int h.hs_rounds);
      ("shed", Json.Int h.hs_shed);
      ("answered", Json.Int h.hs_answered);
      ("cut", Json.Int h.hs_cut);
      ("connect_failures", Json.Int h.hs_connect_failures);
    ]

(* How one attack round ended, from the attacker's point of view. *)
type round_end = R_shed | R_answered | R_cut | R_connect_failed

let read_reply fd =
  match Wire.read_frame fd with
  | Ok payload -> (
      match Wire.response_of_string payload with
      | Ok { Wire.rs_result = Error e; _ } when e.Wire.code = Wire.err_overloaded
        ->
          R_shed
      | Ok _ -> R_answered
      | Error _ -> R_cut)
  | Error _ -> R_cut
  | exception Unix.Unix_error _ -> R_cut

let write_some fd s off len =
  match Unix.write_substring fd s off len with
  | n -> Some n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> Some 0
  | exception Unix.Unix_error _ -> None

let raw_header n =
  let b = Bytes.create 4 in
  Bytes.set_uint8 b 0 ((n lsr 24) land 0xff);
  Bytes.set_uint8 b 1 ((n lsr 16) land 0xff);
  Bytes.set_uint8 b 2 ((n lsr 8) land 0xff);
  Bytes.set_uint8 b 3 (n land 0xff);
  Bytes.to_string b

(* One bounded attack round (a second or so at most: the attacker's own
   socket timeouts stop it from hanging on its victim). *)
let attack_round ~host ~port prng persona =
  match Unix.inet_addr_of_string host with
  | exception Failure _ -> R_connect_failed
  | addr -> (
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      let finish r =
        (try Unix.close fd with Unix.Unix_error _ -> ());
        r
      in
      match Unix.connect fd (Unix.ADDR_INET (addr, port)) with
      | exception Unix.Unix_error _ -> finish R_connect_failed
      | () ->
          (try
             Unix.setsockopt_float fd Unix.SO_RCVTIMEO 0.5;
             Unix.setsockopt_float fd Unix.SO_SNDTIMEO 0.5
           with Unix.Unix_error _ -> ());
          finish
            (match persona with
            | Slow_writer ->
                (* A valid request trickled a byte at a time: without an
                   idle deadline this parks a worker for as long as the
                   attacker cares to drip. *)
                let s =
                  Wire.encode_frame
                    (Wire.request_to_string
                       ~id:(1 + Prng.int prng 1000)
                       ~meth:"get_status" ~params:[] ())
                in
                let n = String.length s in
                let rec drip i =
                  if i >= n then read_reply fd
                  else begin
                    Unix.sleepf (0.004 +. (Prng.float prng *. 0.012));
                    match write_some fd s i 1 with
                    | Some k -> drip (i + k)
                    | None -> R_cut
                  end
                in
                drip 0
            | Half_open ->
                (* Declare a frame, send a fragment, then go silent with
                   the connection open — the idle sweep must reap it. *)
                let declared = 512 + Prng.int prng 512 in
                let junk = String.make (8 + Prng.int prng 56) 'x' in
                (match write_some fd (raw_header declared) 0 4 with
                | None -> R_cut
                | Some _ -> (
                    ignore (write_some fd junk 0 (String.length junk));
                    match Wire.read_frame fd with
                    | _ -> R_cut
                    | exception Unix.Unix_error _ -> R_cut))
            | Never_reads ->
                (* Send requests back to back without ever reading a
                   response: the server's reply buffer fills and its
                   write deadline must cut us, not wedge the worker. *)
                let s =
                  Wire.encode_frame
                    (Wire.request_to_string ~id:1 ~meth:"report" ~params:[] ())
                in
                let n = String.length s in
                let rec flood k off =
                  if k >= 512 then R_cut
                  else
                    match write_some fd s off (n - off) with
                    | None -> R_cut
                    | Some w ->
                        if off + w >= n then flood (k + 1) 0
                        else flood k (off + w)
                in
                flood 0 0
            | Oversized_flooder ->
                (* Declare a frame beyond any configured ceiling; the
                   server must answer with the structured oversized
                   error and close, never allocate the declared size. *)
                let declared =
                  Wire.default_max_frame + 1 + Prng.int prng 100_000
                in
                (match write_some fd (raw_header declared) 0 4 with
                | None -> R_cut
                | Some _ ->
                    let junk = String.make 64 'z' in
                    ignore (write_some fd junk 0 64);
                    read_reply fd)
            | Connect_idle -> (
                (* Occupy a connection slot and say nothing. *)
                match Wire.read_frame fd with
                | _ -> R_cut
                | exception Unix.Unix_error _ -> R_cut)))

type attacker_tally = {
  a_rounds : int;
  a_shed : int;
  a_answered : int;
  a_cut : int;
  a_cfail : int;
}

let attacker ~host ~port ~seed ~stop index () =
  (* Persona fixed per attacker (index-robin over the five), timing and
     sizes drawn from the attacker's own splitmix64 stream: a given
     (seed, attackers) pair replays the same schedule of abuse. *)
  let prng = Prng.create (seed + (7919 * (index + 1))) in
  let persona = all_personas.(index mod Array.length all_personas) in
  let rounds = ref 0
  and shed = ref 0
  and answered = ref 0
  and cut = ref 0
  and cfail = ref 0 in
  while not (Atomic.get stop) do
    incr rounds;
    match attack_round ~host ~port prng persona with
    | R_shed -> incr shed
    | R_answered -> incr answered
    | R_cut -> incr cut
    | R_connect_failed -> incr cfail
  done;
  {
    a_rounds = !rounds;
    a_shed = !shed;
    a_answered = !answered;
    a_cut = !cut;
    a_cfail = !cfail;
  }

let run_hostile ?(host = "127.0.0.1") ?(timeout_ms = 10_000) ~port ~clients
    ~requests ~attackers ~seed ~addresses () =
  if attackers <= 0 then Error "attackers must be positive"
  else begin
    ignore_sigpipe ();
    let stop = Atomic.make false in
    let attack_domains =
      List.init attackers (fun i ->
          Domain.spawn (attacker ~host ~port ~seed ~stop i))
    in
    let result = run ~host ~timeout_ms ~port ~clients ~requests ~addresses () in
    Atomic.set stop true;
    let tallies = List.map Domain.join attack_domains in
    let sum f = List.fold_left (fun acc t -> acc + f t) 0 tallies in
    match result with
    | Error e -> Error e
    | Ok stats ->
        Ok
          ( stats,
            {
              hs_attackers = attackers;
              hs_rounds = sum (fun t -> t.a_rounds);
              hs_shed = sum (fun t -> t.a_shed);
              hs_answered = sum (fun t -> t.a_answered);
              hs_cut = sum (fun t -> t.a_cut);
              hs_connect_failures = sum (fun t -> t.a_cfail);
            } )
  end
