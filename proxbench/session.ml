(* One closed-loop client session against a running daemon: every round
   is an advance, the first findings page after it, a fixed set of point
   reads and a second findings page, each waiting for its reply on one
   connection. *)

open Common
module Json = Report.Json
module Address = Evm.Address
module G = Dataset.Generate

let reads_per_round = 6
let read_methods = [| "is_proxy"; "logic_history"; "collisions" |]

type call = { c_result : (Json.t, string) result; c_ms : float }

type t = {
  client : Serve.Client.t;
  tracer : tracer;
  ctxs : Obs.Trace.gen option;  (** Trace contexts, traced mode only. *)
  mutable trace_ids : string list;
}

let create ~tracer ?(trace_seed = 1) ~port () =
  match Serve.Client.connect ~timeout_ms:60_000 ~port () with
  | Error e -> failwith ("connect: " ^ e)
  | Ok client ->
      {
        client;
        tracer;
        ctxs = Option.map (fun _ -> Obs.Trace.gen ~seed:trace_seed) tracer;
        trace_ids = [];
      }

let close s = Serve.Client.close s.client

(* One timed round trip.  In traced mode the request carries a trace
   context, so the daemon's span for it joins this client span. *)
let call s meth params =
  let trace, args =
    match s.ctxs with
    | None -> (None, [])
    | Some g ->
        let ctx = Obs.Trace.next_ctx g in
        let id = Obs.Trace.id_to_hex ctx.Obs.Trace.trace_id in
        s.trace_ids <- id :: s.trace_ids;
        ( Some
            {
              Serve.Wire.tc_trace_id = id;
              tc_span_id = Obs.Trace.id_to_hex ctx.Obs.Trace.span_id;
            },
          Obs.Trace.ctx_args ctx )
  in
  let t0 = now () in
  let r = Serve.Client.call ?trace s.client ~meth ~params in
  let t1 = now () in
  span s.tracer ~cat:"request" meth ~t0 ~t1 ~args;
  { c_result = r; c_ms = (t1 -. t0) *. 1000.0 }

(* --- the read plan ------------------------------------------------------------- *)

(* Point reads on addresses drawn from the landscape by the seeded
   generator: is_proxy on any contract, logic_history and collisions on
   proxies, where they carry content. *)
let read_plan ~seed ~rounds (land_ : G.t) =
  let rng = Dataset.Prng.create seed in
  let all = Array.of_list (List.map (fun l -> l.G.l_address) land_.G.labels) in
  let proxies =
    Array.of_list
      (List.filter_map
         (fun l -> if l.G.l_is_proxy then Some l.G.l_address else None)
         land_.G.labels)
  in
  Array.init rounds (fun _ ->
      List.init reads_per_round (fun i ->
          let meth = read_methods.(i mod Array.length read_methods) in
          let pool = if meth = "is_proxy" then all else proxies in
          (meth, Dataset.Prng.pick rng pool)))

(* --- rounds ---------------------------------------------------------------------- *)

type round = {
  advance_ms : float;  (** Client-observed round trip, wall. *)
  advance_cpu_ms : float;  (** The daemon's CPU time over the same request. *)
  dirty : int;
  fresh : int;
  journal_bytes : int;
  findings_ms : float;  (** First page after the advance. *)
  cached_findings_ms : float;  (** Second page, store unchanged. *)
  reads : (string * Address.t * call) list;
  findings_total : int option;
}

type tally = { mutable attempted : int; mutable failed : int }

let int_field name = function
  | Ok (Json.Obj kvs) -> (
      match List.assoc_opt name kvs with Some (Json.Int n) -> Some n | _ -> None)
  | _ -> None

let counted tally c =
  tally.attempted <- tally.attempted + 1;
  match c.c_result with
  | Ok _ -> ()
  | Error e ->
      log "request failed: %s" e;
      tally.failed <- tally.failed + 1

(* Bytes an advance's commit wrote to the journal, from the file size
   before and after.  A commit that crosses the compaction threshold
   appends its frames and then rewrites the file as header + that same
   record + commit, so it wrote (after - 9) + after bytes. *)
let journal_written ~before ~after =
  if after >= before then after - before else (2 * after) - 9

(* [cpu] reads the daemon's CPU seconds (see Common.cpu_of_pid). *)
let round s tally ~journal ~cpu plan =
  let before = file_size journal and c0 = cpu () in
  let adv = call s "advance" [] in
  let after = file_size journal and c1 = cpu () in
  counted tally adv;
  let page () = call s "list_findings" [] in
  let first = page () in
  counted tally first;
  let reads =
    List.map
      (fun (meth, addr) ->
        let c = call s meth [ ("address", Json.String (Address.to_hex addr)) ] in
        counted tally c;
        (meth, addr, c))
      plan
  in
  let second = page () in
  counted tally second;
  {
    advance_ms = adv.c_ms;
    advance_cpu_ms = (c1 -. c0) *. 1000.0;
    dirty = Option.value ~default:0 (int_field "dirty" adv.c_result);
    fresh = Option.value ~default:0 (int_field "new_contracts" adv.c_result);
    journal_bytes = journal_written ~before ~after;
    findings_ms = first.c_ms;
    cached_findings_ms = second.c_ms;
    reads;
    findings_total = int_field "total" first.c_result;
  }

(* --- daemon telemetry ------------------------------------------------------------ *)

let metrics s =
  match (call s "metrics" [ ("format", Json.String "json") ]).c_result with
  | Ok j -> j
  | Error e -> failwith ("metrics: " ^ e)

let field name = function Json.Obj kvs -> List.assoc_opt name kvs | _ -> None

let num = function
  | Some (Json.Int n) -> float_of_int n
  | Some (Json.Float f) -> f
  | _ -> 0.0

(* Sum of [key] ("value", "sum" or "count") over the series of a family
   whose labels include [labels]. *)
let family_sum ?(labels = []) snapshot name key =
  match field "metrics" snapshot with
  | Some (Json.List fams) ->
      List.fold_left
        (fun acc fam ->
          if field "name" fam <> Some (Json.String name) then acc
          else
            match field "series" fam with
            | Some (Json.List series) ->
                List.fold_left
                  (fun acc se ->
                    let ls = match field "labels" se with Some l -> l | None -> Json.Null in
                    if
                      List.for_all
                        (fun (k, v) -> field k ls = Some (Json.String v))
                        labels
                    then acc +. num (field key se)
                    else acc)
                  acc series
            | _ -> acc)
        0.0 fams
  | _ -> 0.0

let delta ?labels ~before ~after name key =
  family_sum ?labels after name key -. family_sum ?labels before name key
