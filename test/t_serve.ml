(* Analysis-as-a-service: wire framing (including torn and oversized
   frames), the versioned report schema, query dispatch, incremental
   re-analysis byte-identity against cold full runs, warm recovery from
   the journal, and concurrent-client determinism over real sockets. *)

module Generate = Dataset.Generate
module Json = Report.Json
module Wire = Serve.Wire
module Daemon = Serve.Daemon

let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)
let check_s = Alcotest.(check string)

let small_config =
  { Generate.quick_config with Generate.total = 240; seed = 31 }

let report_string r = Json.to_string (Proxion.Serialize.report_to_json r)

let analysis_config =
  Proxion.Analysis.Config.(default |> with_batch_size 16)

let cold_report (land_ : Generate.t) =
  let t =
    Proxion.Analyzer.create ~config:analysis_config
      ~chain:land_.Generate.chain ~source:land_.Generate.source_of ()
  in
  Proxion.Analyzer.submit_all t;
  Proxion.Analyzer.run t;
  Proxion.Analyzer.report t

let daemon_config =
  Serve.Config.(default |> with_analysis analysis_config |> with_workers 2)

(* The events an in-memory span collector has recorded. *)
let trace_events tr =
  let path = Filename.temp_file "proxion_trace" ".json" in
  let text =
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Out_channel.with_open_text path (fun oc -> Obs.Trace.write tr oc);
        In_channel.with_open_text path In_channel.input_all)
  in
  match Json.parse text with
  | Ok (Json.Obj kvs) -> (
      match List.assoc_opt "traceEvents" kvs with
      | Some (Json.List evs) -> evs
      | _ -> Alcotest.fail "traceEvents missing")
  | Ok _ -> Alcotest.fail "trace is not an object"
  | Error e -> Alcotest.failf "trace does not parse: %s" e

let make_daemon ?(config = daemon_config) ?registry ?log ?trace () =
  let land_ = Generate.generate small_config in
  match Daemon.create ~config ?registry ?log ?trace land_ with
  | Ok d -> (d, land_)
  | Error e -> Alcotest.failf "daemon create failed: %s" e

let contains ~needle haystack =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i =
    if i + nn > nh then false
    else String.sub haystack i nn = needle || at (i + 1)
  in
  at 0

(* A JSONL log sink over a temp file; [f] gets the sink and a reader
   returning everything written so far. *)
let with_json_log f =
  let path = Filename.temp_file "proxion_serve" ".log" in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () ->
      (try close_out oc with Sys_error _ -> ());
      if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let log = Obs.Log.create ~json:true oc in
      f log (fun () ->
          flush oc;
          In_channel.with_open_text path In_channel.input_all))

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let test_frame_roundtrip () =
  with_socketpair (fun a b ->
      let payloads =
        [ ""; "x"; String.make 70_000 'q'; "{\"k\":\"v\"}" ]
      in
      List.iter (fun p -> Wire.write_frame a p) payloads;
      List.iter
        (fun expect ->
          match Wire.read_frame b with
          | Ok got -> check_s "frame payload" expect got
          | Error e -> Alcotest.failf "read: %s" (Wire.read_error_to_string e))
        payloads;
      Unix.close a;
      match Wire.read_frame b with
      | Error Wire.Closed -> ()
      | _ -> Alcotest.fail "expected clean EOF")

let test_frame_torn () =
  (* EOF mid-payload. *)
  with_socketpair (fun a b ->
      let frame = Wire.encode_frame "hello world" in
      let partial = String.sub frame 0 (String.length frame - 4) in
      let n = Unix.write_substring a partial 0 (String.length partial) in
      check_i "partial write" (String.length partial) n;
      Unix.close a;
      match Wire.read_frame b with
      | Error (Wire.Torn { wanted = 11; got = 7 }) -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Wire.read_error_to_string e)
      | Ok _ -> Alcotest.fail "expected a torn frame");
  (* EOF mid-header. *)
  with_socketpair (fun a b ->
      ignore (Unix.write_substring a "\000\000" 0 2);
      Unix.close a;
      match Wire.read_frame b with
      | Error (Wire.Torn { wanted = 4; got = 2 }) -> ()
      | _ -> Alcotest.fail "expected a torn header")

let test_frame_oversized () =
  (match Wire.encode_frame ~max_frame:8 "123456789" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "encode_frame accepted an oversized payload");
  with_socketpair (fun a b ->
      (* A header declaring 16 MiB. *)
      ignore (Unix.write_substring a "\001\000\000\000" 0 4);
      match Wire.read_frame ~max_frame:Wire.default_max_frame b with
      | Error (Wire.Oversized n) -> check_i "declared size" 0x01000000 n
      | _ -> Alcotest.fail "expected oversized")

(* A request frame whose method string holds a \u escape with no hex
   digits. *)
let bad_escape_request =
  {|{"proxion_rpc": 1, "id": 1, "method": "get_status\uZZZZ"}|}

let test_request_parse () =
  let ok =
    Wire.request_to_string ~id:3 ~meth:"is_proxy"
      ~params:[ ("address", Json.String "0xabc") ]
      ()
  in
  (match Wire.request_of_string ok with
  | Ok r ->
      check_s "method" "is_proxy" r.Wire.rq_method;
      check_b "id" true (r.Wire.rq_id = Json.Int 3)
  | Error e -> Alcotest.failf "parse: %s" e.Wire.message);
  let expect_code want payload =
    match Wire.request_of_string payload with
    | Error e -> check_i "error code" want e.Wire.code
    | Ok _ -> Alcotest.fail "expected a parse failure"
  in
  expect_code Wire.err_parse "{not json";
  expect_code Wire.err_parse bad_escape_request;
  expect_code Wire.err_invalid_request "[1,2]";
  expect_code Wire.err_invalid_request "{\"proxion_rpc\":99,\"method\":\"x\"}";
  expect_code Wire.err_invalid_request "{\"proxion_rpc\":1}";
  expect_code Wire.err_invalid_request "{\"method\":\"x\"}"

let test_response_parse () =
  let okp = Wire.response_ok ~id:(Json.Int 7) (Json.Obj [ ("a", Json.Int 1) ]) in
  (match Wire.response_of_string okp with
  | Ok { Wire.rs_id = Json.Int 7; rs_schema_version = Some v; rs_result = Ok _ }
    ->
      check_i "schema version" Report.Schema.version v
  | _ -> Alcotest.fail "bad ok response");
  let errp =
    Wire.response_error ~id:(Json.Int 8)
      { Wire.code = Wire.err_unknown_address; message = "nope" }
  in
  match Wire.response_of_string errp with
  | Ok { Wire.rs_result = Error e; _ } ->
      check_i "code" Wire.err_unknown_address e.Wire.code
  | _ -> Alcotest.fail "bad error response"

let test_trace_field () =
  let is_trace_id s = Obs.Trace.id_of_hex s <> None in
  check_b "is_trace_id accepts 16 lowercase hex" true
    (is_trace_id (String.make 16 'a') && is_trace_id (String.make 16 '0'));
  List.iter
    (fun bad ->
      check_b
        (Printf.sprintf "is_trace_id rejects %S" bad)
        false (is_trace_id bad))
    [ ""; "abc"; String.make 16 'A'; String.make 17 'a'; String.make 16 'g' ];
  (* A well-formed context rides the wire and comes back intact. *)
  let tc =
    { Wire.tc_trace_id = String.make 16 'a'; tc_span_id = String.make 16 'b' }
  in
  let payload =
    Wire.request_to_string ~trace:tc ~id:9 ~meth:"get_status" ~params:[] ()
  in
  (match Wire.request_of_string payload with
  | Ok r -> check_b "trace context round-trips" true (r.Wire.rq_trace = Some tc)
  | Error e -> Alcotest.failf "traced request rejected: %s" e.Wire.message);
  (* An explicit null trace reads as absent. *)
  (match
     Wire.request_of_string
       {|{"proxion_rpc": 1, "id": 9, "method": "get_status", "trace": null}|}
   with
  | Ok r -> check_b "null trace reads as untraced" true (r.Wire.rq_trace = None)
  | Error e -> Alcotest.failf "null trace rejected: %s" e.Wire.message);
  (* Untraced payloads stay byte-identical to previous releases. *)
  check_b "no trace field when unset" false
    (contains ~needle:"trace"
       (Wire.request_to_string ~id:9 ~meth:"get_status" ~params:[] ()));
  (* Malformed trace values reject with the structured error. *)
  let reject what trace_json =
    let payload =
      Json.to_string
        (Json.Obj
           [
             ("proxion_rpc", Json.Int Wire.protocol_version);
             ("id", Json.Int 1);
             ("method", Json.String "get_status");
             ("params", Json.Obj []);
             ("trace", trace_json);
           ])
    in
    match Wire.request_of_string payload with
    | Error e ->
        check_i (what ^ " code") Wire.err_invalid_request e.Wire.code
    | Ok _ -> Alcotest.fail (what ^ ": malformed trace accepted")
  in
  let good = Json.String (String.make 16 'a') in
  reject "non-object trace" (Json.Int 3);
  reject "short id" (Json.Obj [ ("trace_id", Json.String "abc"); ("span_id", good) ]);
  reject "uppercase id"
    (Json.Obj [ ("trace_id", Json.String (String.make 16 'A')); ("span_id", good) ]);
  reject "missing span_id" (Json.Obj [ ("trace_id", good) ]);
  reject "non-string ids"
    (Json.Obj [ ("trace_id", Json.Int 7); ("span_id", good) ])

(* ------------------------------------------------------------------ *)
(* Versioned report schema                                             *)
(* ------------------------------------------------------------------ *)

let stats_gen =
  QCheck.Gen.(
    map
      (fun l ->
        match l with
        | [ a; b; c; d; e; f; g; h; i; j; k; m ] ->
            {
              Proxion.Analysis.s_analyzed = a;
              s_proxies = b;
              s_emulation_errors = c;
              s_pairs = d;
              s_func_colliding_pairs = e;
              s_storage_colliding_pairs = f;
              s_verified_storage_pairs = g;
              s_honeypot_pairs = h;
              s_dedup_hits = i;
              s_unique_codes = j;
              s_api_calls = k;
              s_emulation_steps = m;
            }
        | _ -> assert false)
      (list_repeat 12 (int_bound 1_000_000)))

let stats_roundtrip_prop =
  QCheck.Test.make ~count:200 ~name:"stats JSON round-trip"
    (QCheck.make stats_gen) (fun stats ->
      match Proxion.Serialize.stats_of_json (Proxion.Serialize.stats_to_json stats)
      with
      | Ok back -> back = stats
      | Error _ -> false)

let test_report_roundtrip () =
  let land_ = Generate.generate { small_config with Generate.total = 120 } in
  let report = cold_report land_ in
  let json = Proxion.Serialize.report_to_json report in
  (match Report.Schema.version_of json with
  | Some v -> check_i "stamped version" Report.Schema.version v
  | None -> Alcotest.fail "report not stamped");
  check_b "stamped kind" true
    (Report.Schema.kind_of json = Some Proxion.Serialize.report_kind);
  (* Through text and back: byte-identical re-serialization. *)
  let text = Json.to_string json in
  (match Json.parse text with
  | Error e -> Alcotest.failf "reparse: %s" e
  | Ok parsed -> (
      match Proxion.Serialize.report_of_json parsed with
      | Error e -> Alcotest.failf "of_json: %s" e
      | Ok back -> check_s "round-trip bytes" text (report_string back)));
  (* Version and kind gates. *)
  let tampered = Report.Schema.stamp ~kind:"proxion.other" json in
  check_b "kind gate" true
    (Result.is_error (Proxion.Serialize.report_of_json tampered));
  match json with
  | Json.Obj kvs ->
      let wrong =
        Json.Obj
          (List.map
             (function
               | "schema_version", _ -> ("schema_version", Json.Int 999)
               | kv -> kv)
             kvs)
      in
      check_b "version gate" true
        (Result.is_error (Proxion.Serialize.report_of_json wrong))
  | _ -> Alcotest.fail "report json not an object"

(* ------------------------------------------------------------------ *)
(* Query dispatch (in-process)                                         *)
(* ------------------------------------------------------------------ *)

let call_daemon ?deadline d meth params =
  let payload =
    Wire.request_to_string ~id:1 ~meth ~params ()
  in
  let _, response = Daemon.handle ?deadline d payload in
  match Wire.response_of_string response with
  | Ok r -> r.Wire.rs_result
  | Error e -> Alcotest.failf "unparsable response: %s" e

let get_ok = function
  | Ok j -> j
  | Error e -> Alcotest.failf "unexpected error %d: %s" e.Wire.code e.Wire.message

let field name = function
  | Json.Obj kvs -> (
      match List.assoc_opt name kvs with
      | Some v -> v
      | None -> Alcotest.failf "missing field %s" name)
  | _ -> Alcotest.fail "expected an object"

let int_field name j =
  match field name j with
  | Json.Int n -> n
  | _ -> Alcotest.failf "field %s not an int" name

(* list_findings's two severity filters over the store's findings, for
   every level: [min_severity] answers the findings at or above it and
   [severity] those at it, each in the store's order.  The rank table is
   written out here, so a filter ranking severities the wrong way round
   fails whichever levels the landscape holds. *)
let test_severity_filters () =
  let d, _ = make_daemon () in
  let stored =
    Serve.Store.findings (Daemon.store d) ~unique_codes:(Daemon.unique_codes d)
  in
  let rank = function
    | Proxion.Findings.Critical -> 0
    | Proxion.Findings.High -> 1
    | Proxion.Findings.Medium -> 2
    | Proxion.Findings.Info -> 3
  in
  let ranks = List.map (fun f -> rank f.Proxion.Findings.f_severity) stored in
  check_b "store holds findings of several levels" true
    (List.length (List.sort_uniq compare ranks) > 1);
  check_b "store findings fit one page" true (List.length stored <= 500);
  check_b "store findings most severe first" true
    (ranks = List.stable_sort compare ranks);
  let answered params =
    Json.to_string
      (field "findings"
         (get_ok
            (call_daemon d "list_findings" (("limit", Json.Int 500) :: params))))
  in
  let expected keep =
    Json.to_string
      (Proxion.Findings.to_json
         (List.filter (fun f -> keep (rank f.Proxion.Findings.f_severity)) stored))
  in
  List.iter
    (fun (level, name) ->
      check_s ("min_severity " ^ name)
        (expected (fun r -> r <= rank level))
        (answered [ ("min_severity", Json.String name) ]);
      check_s ("severity " ^ name)
        (expected (fun r -> r = rank level))
        (answered [ ("severity", Json.String name) ]))
    [
      (Proxion.Findings.Critical, "critical");
      (Proxion.Findings.High, "HIGH");
      (Proxion.Findings.Medium, "Medium");
      (Proxion.Findings.Info, "info");
    ];
  Daemon.stop d

let test_queries () =
  let d, land_ = make_daemon () in
  let cold = cold_report land_ in
  (* get_status *)
  let status = get_ok (call_daemon d "get_status" []) in
  check_i "contracts" cold.Proxion.Analysis.stats.Proxion.Analysis.s_analyzed
    (int_field "contracts" status);
  check_i "proxies" cold.Proxion.Analysis.stats.Proxion.Analysis.s_proxies
    (int_field "proxies" status);
  check_i "advances" 0 (int_field "advances" status);
  (* report: byte-identical to the cold run. *)
  let report_json = get_ok (call_daemon d "report" []) in
  check_s "report bytes" (report_string cold) (Json.to_string report_json);
  (* is_proxy on a ground-truth proxy and a non-proxy. *)
  let some_proxy =
    List.find (fun l -> l.Generate.l_is_proxy) land_.Generate.labels
  in
  let some_plain =
    List.find
      (fun l -> l.Generate.l_kind = Generate.K_plain)
      land_.Generate.labels
  in
  let addr_param l =
    [ ("address", Json.String (Evm.Address.to_hex l.Generate.l_address)) ]
  in
  let p = get_ok (call_daemon d "is_proxy" (addr_param some_proxy)) in
  check_b "proxy detected" true (field "is_proxy" p = Json.Bool true);
  let q = get_ok (call_daemon d "is_proxy" (addr_param some_plain)) in
  check_b "plain rejected" true (field "is_proxy" q = Json.Bool false);
  (* logic_history agrees with the stored report. *)
  let h = get_ok (call_daemon d "logic_history" (addr_param some_proxy)) in
  check_b "resolution present" true (field "resolution" h <> Json.Null);
  (* collisions returns the stored pairs. *)
  let c = get_ok (call_daemon d "collisions" (addr_param some_proxy)) in
  (match field "pairs" c with
  | Json.List _ -> ()
  | _ -> Alcotest.fail "pairs not a list");
  (* unknown address *)
  (match
     call_daemon d "is_proxy"
       [ ("address", Json.String "0x00000000000000000000000000000000000000ff") ]
   with
  | Error e -> check_i "unknown address" Wire.err_unknown_address e.Wire.code
  | Ok _ -> Alcotest.fail "expected unknown-address error");
  (* Param decoding: each row is rejected with -32602 or accepted.  A
     row's params is the whole [params] value sent. *)
  let invalid = Some Wire.err_invalid_params and accepted = None in
  let call_params meth params =
    let payload =
      Json.to_string ~pretty:false
        (Json.Obj
           [
             ("proxion_rpc", Json.Int Wire.protocol_version);
             ("id", Json.Int 1);
             ("method", Json.String meth);
             ("params", params);
           ])
    in
    match Wire.response_of_string (snd (Daemon.handle d payload)) with
    | Ok r -> r.Wire.rs_result
    | Error e -> Alcotest.failf "unparsable response: %s" e
  in
  List.iter
    (fun (meth, params, want) ->
      let what =
        Printf.sprintf "%s %s" meth (Json.to_string ~pretty:false params)
      in
      match (call_params meth params, want) with
      | Error e, Some code -> check_i what code e.Wire.code
      | Ok _, None -> ()
      | Error e, None -> Alcotest.failf "%s: rejected with %d" what e.Wire.code
      | Ok _, Some _ -> Alcotest.failf "%s: accepted" what)
    [
      ("is_proxy", Json.Obj [ ("address", Json.String "zz") ], invalid);
      ("is_proxy", Json.Obj [], invalid);
      ( "is_proxy",
        Json.Obj [ ("address", Json.String ("0x" ^ String.make 38 'a')) ],
        invalid );
      ("list_findings", Json.Obj [ ("offset", Json.String "3") ], invalid);
      ("list_findings", Json.Obj [ ("limit", Json.Float 2.5) ], invalid);
      ( "list_findings",
        Json.Obj [ ("severity", Json.String "urgent") ],
        invalid );
      ("list_findings", Json.Obj [ ("severity", Json.Int 3) ], invalid);
      ( "list_findings",
        Json.Obj [ ("min_severity", Json.String "x") ],
        invalid );
      ( "list_findings",
        Json.Obj [ ("min_severity", Json.Bool true) ],
        invalid );
      ("metrics", Json.Obj [ ("format", Json.String "xml") ], invalid);
      ("flight", Json.Obj [ ("limit", Json.String "5") ], invalid);
      ("advance", Json.Obj [ ("count", Json.String "2") ], invalid);
      (* A present params that is not an object runs nothing. *)
      ("advance", Json.List [ Json.Int 5 ], invalid);
      ("list_findings", Json.String "severity=critical", invalid);
      ("list_findings", Json.Obj [], accepted);
      ("list_findings", Json.Null, accepted);
      ( "list_findings",
        Json.Obj
          [
            ("severity", Json.String "critical"); ("min_severity", Json.Int 7);
          ],
        accepted );
    ];
  check_i "no rejected advance ran" 0
    (int_field "advances" (get_ok (call_daemon d "get_status" [])));
  (* An explicit null reads as absent: the reply is the default's. *)
  List.iter
    (fun (meth, params) ->
      check_s
        (Printf.sprintf "%s %s" meth
           (Json.to_string ~pretty:false (Json.Obj params)))
        (Json.to_string (get_ok (call_daemon d meth [])))
        (Json.to_string (get_ok (call_daemon d meth params))))
    [
      ("list_findings", [ ("offset", Json.Null); ("limit", Json.Null) ]);
      ( "list_findings",
        [ ("severity", Json.Null); ("min_severity", Json.Null) ] );
      ("metrics", [ ("format", Json.Null) ]);
      ("flight", [ ("limit", Json.Null) ]);
    ];
  (match call_daemon d "no_such_method" [] with
  | Error e -> check_i "unknown method" Wire.err_method_not_found e.Wire.code
  | Ok _ -> Alcotest.fail "expected method-not-found");
  (* list_findings pagination covers the corpus exactly once. *)
  let total = int_field "total" (get_ok (call_daemon d "list_findings" [])) in
  let page_size = 7 in
  let rec collect offset acc =
    let page =
      get_ok
        (call_daemon d "list_findings"
           [ ("offset", Json.Int offset); ("limit", Json.Int page_size) ])
    in
    let count = int_field "count" page in
    check_i "total stable" total (int_field "total" page);
    if count = 0 then acc
    else collect (offset + count) (acc + count)
  in
  check_i "paged total" total (collect 0 0);
  let crit =
    get_ok
      (call_daemon d "list_findings"
         [ ("severity", Json.String "critical"); ("limit", Json.Int 500) ])
  in
  check_b "filtered <= total" true (int_field "total" crit <= total);
  (* metrics: prometheus output passes the linter. *)
  (match get_ok (call_daemon d "metrics" []) with
  | Json.String text -> (
      match Obs.Metrics.lint text with
      | Ok () -> ()
      | Error msgs -> Alcotest.failf "promlint: %s" (String.concat "; " msgs))
  | _ -> Alcotest.fail "metrics not a string");
  (* flight: the ring is served over the wire; limit keeps the newest. *)
  let fl = get_ok (call_daemon d "flight" []) in
  check_i "flight ring capacity" 256 (int_field "capacity" fl);
  (match field "events" fl with
  | Json.List _ -> ()
  | _ -> Alcotest.fail "flight events not a list");
  match field "events" (get_ok (call_daemon d "flight" [ ("limit", Json.Int 1) ])) with
  | Json.List l -> check_b "flight limit trims" true (List.length l <= 1)
  | _ -> Alcotest.fail "limited flight events not a list"

(* ------------------------------------------------------------------ *)
(* Incremental re-analysis                                             *)
(* ------------------------------------------------------------------ *)

let test_incremental_identity () =
  let d, land_ = make_daemon () in
  for i = 1 to 3 do
    let r = Daemon.advance d in
    let store_size = Serve.Store.size (Daemon.store d) in
    (* It is actually incremental: the dirty set is a strict subset. *)
    check_b
      (Printf.sprintf "advance %d re-analyzes a strict subset" i)
      true
      (r.Daemon.adv_dirty > 0 && r.Daemon.adv_dirty + r.Daemon.adv_new < store_size);
    (* Byte-identity with a cold full run over the advanced chain. *)
    let cold = cold_report land_ in
    let warm =
      Serve.Store.report (Daemon.store d)
        ~unique_codes:(Daemon.unique_codes d)
    in
    check_s
      (Printf.sprintf "advance %d: incremental = cold" i)
      (report_string cold) (report_string warm)
  done

(* An advance asks the archive only about the slot proxies it wrote or
   deployed; a live query asks it always.  After one advance, a query of
   a slot proxy that advance did not write serves exactly its
   resolution's [api_calls - 1] eth_getStorageAt requests (the head read
   is no request) and answers the stored report.  Its logic-resolve
   stage, traced with the archive calls it made, cost nothing in the
   advance before the query and nothing in the one after. *)
let test_query_reads_the_archive () =
  let trace = Obs.Trace.create () in
  let d, _ = make_daemon ~trace () in
  let registry = Daemon.registry d in
  let requests () =
    Option.bind (Obs.Metrics.find registry "proxion_api_method_calls_total")
      (Obs.Metrics.value ~labels:[ ("method", "eth_getStorageAt") ] registry)
    |> Option.fold ~none:0 ~some:int_of_float
  in
  let written (r : Daemon.advance_result) =
    r.Daemon.adv_summary.Serve.Advance.a_writes
    @ r.Daemon.adv_summary.Serve.Advance.a_new_contracts
  in
  let first = written (Daemon.advance d) in
  let subject, resolution =
    match
      List.find_map
        (fun (e : Proxion.Analysis.entry) ->
          let r = e.Proxion.Analysis.e_report in
          match
            ( r.Proxion.Analysis.r_detection.Proxion.Proxy_detect.verdict,
              r.Proxion.Analysis.r_resolution )
          with
          | ( Proxion.Proxy_detect.Proxy
                { source = Proxion.Proxy_detect.Storage_slot _; _ },
              Some res )
            when (not r.Proxion.Analysis.r_dedup_hit)
                 && not (List.mem r.Proxion.Analysis.r_address first) ->
              Some (r, res)
          | _ -> None)
        (Serve.Store.entries (Daemon.store d))
    with
    | Some found -> found
    | None -> Alcotest.fail "no unwritten slot proxy after the advance"
  in
  let addr = subject.Proxion.Analysis.r_address in
  let addr_hex = Evm.Address.to_hex addr in
  let served0 = requests () in
  let answer =
    get_ok (call_daemon d "query" [ ("address", Json.String addr_hex) ])
  in
  check_i "eth_getStorageAt requests the query served"
    (resolution.Proxion.Logic_resolve.api_calls - 1)
    (requests () - served0);
  check_s "the query answers the stored report"
    (Json.to_string (Proxion.Serialize.contract_report_to_json subject))
    (Json.to_string (field "report" answer));
  check_b "the next advance leaves the subject unwritten" false
    (List.mem addr (written (Daemon.advance d)));
  let arg key ev =
    match ev with
    | Json.Obj kvs -> (
        match List.assoc_opt "args" kvs with
        | Some (Json.Obj args) -> List.assoc_opt key args
        | _ -> None)
    | _ -> None
  in
  let resolve_calls =
    List.filter_map
      (fun ev ->
        match ev with
        | Json.Obj kvs
          when List.assoc_opt "name" kvs = Some (Json.String "logic-resolve")
               && arg "subject" ev = Some (Json.String addr_hex) -> (
            match arg "api_calls" ev with
            | Some (Json.Int n) -> Some n
            | _ -> Alcotest.fail "logic-resolve span without api_calls")
        | _ -> None)
      (trace_events trace)
  in
  match resolve_calls with
  | [ _cold_start; advanced; queried; advanced_again ] ->
      Alcotest.(check (list int))
        "archive calls of the subject's resolutions: advance, query, advance"
        [ 0; resolution.Proxion.Logic_resolve.api_calls; 0 ]
        [ advanced; queried; advanced_again ]
  | calls ->
      Alcotest.failf "%d logic-resolve spans for the subject, expected 4"
        (List.length calls)

(* ------------------------------------------------------------------ *)
(* Warm recovery                                                       *)
(* ------------------------------------------------------------------ *)

let temp_journal () =
  let path = Filename.temp_file "proxion_serve" ".journal" in
  Sys.remove path;
  path

let test_warm_recovery () =
  let path = temp_journal () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let config = Serve.Config.(daemon_config |> with_journal (Some path)) in
      let d1, _ = make_daemon ~config () in
      ignore (Daemon.advance d1);
      ignore (Daemon.advance d1);
      let bytes1 =
        report_string
          (Serve.Store.report (Daemon.store d1)
             ~unique_codes:(Daemon.unique_codes d1))
      in
      (* Simulate SIGKILL: drop d1 without stopping it, re-create from a
         freshly generated landscape + the journal. *)
      let land2 = Generate.generate small_config in
      match Daemon.create ~config land2 with
      | Error e -> Alcotest.failf "recovery failed: %s" e
      | Ok d2 ->
          check_b "recovered warm" true (Daemon.recovered d2);
          check_i "advances restored" 2 (Daemon.advances_applied d2);
          let bytes2 =
            report_string
              (Serve.Store.report (Daemon.store d2)
                 ~unique_codes:(Daemon.unique_codes d2))
          in
          check_s "store identical after recovery" bytes1 bytes2;
          (* The recovered daemon keeps advancing correctly. *)
          ignore (Daemon.advance d2);
          let cold = cold_report land2 in
          check_s "post-recovery advance = cold" (report_string cold)
            (report_string
               (Serve.Store.report (Daemon.store d2)
                  ~unique_codes:(Daemon.unique_codes d2))))

(* ------------------------------------------------------------------ *)
(* Sockets: concurrent clients, oversized frames, shutdown             *)
(* ------------------------------------------------------------------ *)

let query_script (land_ : Generate.t) =
  let proxies =
    List.filter (fun l -> l.Generate.l_is_proxy) land_.Generate.labels
  in
  let pick n = List.nth proxies (n mod List.length proxies) in
  [ ("get_status", []) ]
  @ List.concat_map
      (fun n ->
        let addr =
          Json.String (Evm.Address.to_hex (pick n).Generate.l_address)
        in
        [
          ("is_proxy", [ ("address", addr) ]);
          ("logic_history", [ ("address", addr) ]);
          ("collisions", [ ("address", addr) ]);
        ])
      [ 0; 3; 7; 11 ]
  @ [ ("list_findings", [ ("limit", Json.Int 25) ]) ]

let test_concurrent_clients () =
  let d, land_ = make_daemon () in
  (match Daemon.start d with
  | Ok () -> ()
  | Error e -> Alcotest.failf "start: %s" e);
  let port = Daemon.port d in
  let script = query_script land_ in
  let run_client () =
    match Serve.Client.connect ~port () with
    | Error e -> Error e
    | Ok c ->
        let out =
          List.map
            (fun (meth, params) ->
              match Serve.Client.call c ~meth ~params with
              | Ok j -> Json.to_string ~pretty:false j
              | Error e -> "ERR " ^ e)
            script
        in
        Serve.Client.close c;
        Ok out
  in
  let domains = List.init 4 (fun _ -> Domain.spawn run_client) in
  let outs = List.map Domain.join domains in
  let first =
    match List.hd outs with
    | Ok o -> o
    | Error e -> Alcotest.failf "client: %s" e
  in
  List.iteri
    (fun i out ->
      match out with
      | Ok o ->
          check_s
            (Printf.sprintf "client %d sees identical responses" i)
            (String.concat "\n" first) (String.concat "\n" o)
      | Error e -> Alcotest.failf "client %d: %s" i e)
    outs;
  check_b "all responses succeeded" true
    (List.for_all
       (fun line -> not (String.length line >= 3 && String.sub line 0 3 = "ERR"))
       first);
  (* Oversized frame: the server answers with err_oversized and closes. *)
  (let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
   Unix.connect fd
     (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
   ignore (Unix.write_substring fd "\x7f\x00\x00\x00" 0 4);
   (match Wire.read_frame fd with
   | Ok payload -> (
       match Wire.response_of_string payload with
       | Ok { Wire.rs_result = Error e; _ } ->
           check_i "oversized code" Wire.err_oversized e.Wire.code
       | _ -> Alcotest.fail "expected an error response")
   | Error e ->
       Alcotest.failf "no oversized reply: %s" (Wire.read_error_to_string e));
   (match Wire.read_frame fd with
   | Error Wire.Closed -> ()
   | _ -> Alcotest.fail "connection not closed after oversized frame");
   Unix.close fd);
  (* Shutdown over the wire stops the daemon. *)
  (match Serve.Client.connect ~port () with
  | Error e -> Alcotest.failf "connect: %s" e
  | Ok c ->
      (match Serve.Client.call c ~meth:"shutdown" ~params:[] with
      | Ok j -> check_b "stopping" true (field "stopping" j = Json.Bool true)
      | Error e -> Alcotest.failf "shutdown: %s" e);
      Serve.Client.close c);
  Daemon.wait d

(* ------------------------------------------------------------------ *)
(* Overload robustness: shedding, deadlines, drain, hostile input       *)
(* ------------------------------------------------------------------ *)

let connect_raw port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
  fd

let start_daemon d =
  match Daemon.start d with
  | Ok () -> ()
  | Error e -> Alcotest.failf "start: %s" e

let expect_wire_error ~what want fd =
  match Wire.read_frame fd with
  | Ok payload -> (
      match Wire.response_of_string payload with
      | Ok { Wire.rs_result = Error e; _ } ->
          check_i (what ^ " code") want e.Wire.code
      | _ -> Alcotest.failf "expected a structured %s error" what)
  | Error e ->
      Alcotest.failf "no %s reply: %s" what (Wire.read_error_to_string e)

(* A client writing a request and vanishing before the reply lands must
   surface as EPIPE on the worker, not kill the whole process. *)
let test_sigpipe_mid_reply () =
  let d, _ = make_daemon () in
  start_daemon d;
  let port = Daemon.port d in
  for _ = 1 to 5 do
    let fd = connect_raw port in
    Wire.write_frame fd (Wire.request_to_string ~id:1 ~meth:"report" ~params:[] ());
    Unix.close fd
  done;
  (* The daemon is still alive and answers a well-formed request. *)
  (match Serve.Client.connect ~timeout_ms:5_000 ~port () with
  | Error e -> Alcotest.failf "connect after EPIPE: %s" e
  | Ok c ->
      (match Serve.Client.call c ~meth:"get_status" ~params:[] with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "call after EPIPE: %s" e);
      Serve.Client.close c);
  Daemon.stop d

(* A response above the frame ceiling is answered with a structured 1001
   error carrying the request id, counted and access-logged like any
   other error, and the connection keeps serving. *)
let test_oversized_response () =
  with_json_log @@ fun log read_log ->
  let config =
    Serve.Config.(daemon_config |> with_workers 1 |> with_max_frame 1024)
  in
  let d, _ = make_daemon ~config ~log () in
  start_daemon d;
  let fd = connect_raw (Daemon.port d) in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  let call id meth =
    Wire.write_frame fd (Wire.request_to_string ~id ~meth ~params:[] ());
    match Wire.read_frame fd with
    | Error e -> Alcotest.failf "%s: %s" meth (Wire.read_error_to_string e)
    | Ok payload -> (
        match Wire.response_of_string payload with
        | Ok r -> r
        | Error e -> Alcotest.failf "%s response: %s" meth e)
  in
  let r = call 7 "report" in
  check_b "the error carries the request id" true (r.Wire.rs_id = Json.Int 7);
  (match r.Wire.rs_result with
  | Error e -> check_i "report answered with 1001" Wire.err_oversized e.Wire.code
  | Ok _ -> Alcotest.fail "a report above the ceiling was sent whole");
  (match (call 8 "get_status").Wire.rs_result with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "get_status after 1001: %s" e.Wire.message);
  Unix.close fd;
  let reg = Daemon.registry d in
  Daemon.stop d;
  (match Obs.Metrics.find reg "proxion_serve_errors_total" with
  | None -> Alcotest.fail "error counter family missing"
  | Some fam ->
      check_b "the 1001 is a request error" true
        (Obs.Metrics.value ~labels:[ ("method", "report") ] reg fam = Some 1.0));
  let failed_report line =
    match Json.parse line with
    | Ok (Json.Obj kvs) -> (
        match (List.assoc_opt "msg" kvs, List.assoc_opt "fields" kvs) with
        | Some (Json.String "request"), Some (Json.Obj fs) ->
            List.assoc_opt "method" fs = Some (Json.String "report")
            && List.assoc_opt "ok" fs = Some (Json.Bool false)
        | _ -> false)
    | _ -> false
  in
  check_b "the 1001 has an access-log line" true
    (List.exists failed_report (String.split_on_char '\n' (read_log ())))

let test_admission_shed () =
  with_json_log @@ fun log read_log ->
  let config =
    Serve.Config.(
      daemon_config |> with_workers 1 |> with_max_conns 1 |> with_queue_limit 1)
  in
  let d, _ = make_daemon ~config ~log () in
  start_daemon d;
  let port = Daemon.port d in
  (* c1 occupies the only slot; a completed call proves it was admitted
     and claimed by the single worker. *)
  let c1 =
    match Serve.Client.connect ~timeout_ms:5_000 ~port () with
    | Ok c -> c
    | Error e -> Alcotest.failf "c1 connect: %s" e
  in
  (match Serve.Client.call c1 ~meth:"get_status" ~params:[] with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "c1 call: %s" e);
  (* c2 is shed at accept with the structured overloaded error, counted,
     and closed — never silently dropped, never queued unbounded. *)
  let fd = connect_raw port in
  expect_wire_error ~what:"shed" Wire.err_overloaded fd;
  (match Wire.read_frame fd with
  | Error Wire.Closed -> ()
  | _ -> Alcotest.fail "shed connection not closed");
  Unix.close fd;
  let reg = Daemon.registry d in
  (match Obs.Metrics.find reg "proxion_serve_shed_connections_total" with
  | None -> Alcotest.fail "shed counter family missing"
  | Some fam ->
      check_b "shed counted" true
        (match Obs.Metrics.value ~labels:[ ("reason", "max_conns") ] reg fam with
        | Some v -> v >= 1.0
        | None -> false));
  (* The shed is never invisible: beyond the counter, the flight
     recorder holds a [shed] event and the access log a structured
     line, all three naming the same reason and the 1002 code. *)
  (match Obs.Flight.to_json (Daemon.flight d) with
  | Json.Obj kvs -> (
      match List.assoc_opt "events" kvs with
      | Some (Json.List evs) ->
          check_b "flight recorded the shed with its reason" true
            (List.exists
               (fun ev ->
                 match ev with
                 | Json.Obj e ->
                     List.assoc_opt "kind" e = Some (Json.String "shed")
                     && (match List.assoc_opt "fields" e with
                        | Some (Json.Obj fs) ->
                            List.assoc_opt "reason" fs
                            = Some (Json.String "max_conns")
                        | _ -> false)
                 | _ -> false)
               evs)
      | _ -> Alcotest.fail "flight events missing")
  | _ -> Alcotest.fail "flight json not an object");
  let log_text = read_log () in
  check_b "shed hit the access log" true
    (contains ~needle:"connection shed" log_text);
  check_b "shed log names the reason" true
    (contains ~needle:"max_conns" log_text);
  check_b "shed log carries the 1002 code" true
    (contains ~needle:"1002" log_text);
  (* Releasing c1 frees the slot (the worker notices the EOF at its next
     poll wakeup) and a fresh client gets in. *)
  Serve.Client.close c1;
  let rec retry n =
    if n = 0 then Alcotest.fail "slot never freed after client close"
    else
      let again () =
        Unix.sleepf 0.05;
        retry (n - 1)
      in
      match Serve.Client.connect ~timeout_ms:5_000 ~port () with
      | Error _ -> again ()
      | Ok c -> (
          match Serve.Client.call c ~meth:"get_status" ~params:[] with
          | Ok _ -> Serve.Client.close c
          | Error _ ->
              Serve.Client.close c;
              again ())
  in
  retry 100;
  Daemon.stop d

(* Slowloris: a connection that trickles (or stalls) its frame is cut at
   the idle deadline instead of holding a worker hostage forever. *)
let test_idle_timeout () =
  let config =
    Serve.Config.(daemon_config |> with_workers 1 |> with_idle_timeout_ms 300)
  in
  let d, _ = make_daemon ~config () in
  start_daemon d;
  let port = Daemon.port d in
  let fd = connect_raw port in
  Wire.write_frame fd
    (Wire.request_to_string ~id:1 ~meth:"get_status" ~params:[] ());
  (match Wire.read_frame fd with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "healthy call: %s" (Wire.read_error_to_string e));
  (* Two header bytes, then silence. *)
  let t0 = Unix.gettimeofday () in
  ignore (Unix.write_substring fd "\000\000" 0 2);
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
  (match Wire.read_frame fd with
  | Error (Wire.Closed | Wire.Torn _) -> ()
  | Error e ->
      Alcotest.failf "expected the server to cut the connection, got %s"
        (Wire.read_error_to_string e)
  | Ok _ -> Alcotest.fail "server answered a half frame");
  let waited = Unix.gettimeofday () -. t0 in
  check_b "cut within bounds (idle sweep, not the 5s client timeout)" true
    (waited < 4.0);
  Unix.close fd;
  Daemon.stop d

(* Deadline decisions read the injected clock, so a virtual clock that
   advances a fixed step per read makes them a pure function of the
   request — same daemon, same request, same verdict. *)
let test_deadline_virtual_clock () =
  let run_scenario () =
    let clock = Obs.Clock.virtual_ ~start:0.0 ~auto_step:1.0 () in
    let config = Serve.Config.(daemon_config |> with_clock clock) in
    let d, _ = make_daemon ~config () in
    (* Already-expired deadline: refused at entry, nothing applied. *)
    let expired = Obs.Clock.now clock in
    (match call_daemon ~deadline:expired d "get_status" [] with
    | Error e ->
        check_i "entry deadline code" Wire.err_deadline_exceeded e.Wire.code
    | Ok _ -> Alcotest.fail "expected deadline_exceeded at entry");
    check_i "nothing applied" 0 (Daemon.advances_applied d);
    (* Multi-step advance: the budget expires between steps; committed
       steps stay committed and the error says how far it got. *)
    let deadline = Obs.Clock.now clock +. 2.5 in
    (match call_daemon ~deadline d "advance" [ ("count", Json.Int 5) ] with
    | Error e ->
        check_i "mid-advance deadline code" Wire.err_deadline_exceeded
          e.Wire.code
    | Ok _ -> Alcotest.fail "expected deadline_exceeded mid-advance");
    let applied = Daemon.advances_applied d in
    check_b "partial progress committed" true (applied > 0 && applied < 5);
    applied
  in
  let first = run_scenario () in
  (* Determinism: an identical daemon under an identical virtual clock
     makes the identical shedding decision. *)
  check_i "identical deadline decision on replay" first (run_scenario ())

let test_drain_lifecycle () =
  let path = temp_journal () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let config = Serve.Config.(daemon_config |> with_journal (Some path)) in
      let d, _ = make_daemon ~config () in
      ignore (Daemon.advance d);
      start_daemon d;
      let port = Daemon.port d in
      let pre =
        report_string
          (Serve.Store.report (Daemon.store d)
             ~unique_codes:(Daemon.unique_codes d))
      in
      (* Health surface before the drain. *)
      let health = get_ok (call_daemon d "health" []) in
      check_b "healthy" true (field "status" health = Json.String "ok");
      check_b "not draining" true (field "draining" health = Json.Bool false);
      let ready = get_ok (call_daemon d "ready" []) in
      check_b "ready" true (field "ready" ready = Json.Bool true);
      Daemon.request_drain d;
      check_b "draining flag" true (Daemon.is_draining d);
      (* Readiness flipped first and the gauges agree. *)
      let reg = Daemon.registry d in
      let gauge name =
        match Obs.Metrics.find reg name with
        | Some fam -> Obs.Metrics.value reg fam
        | None -> Alcotest.failf "gauge %s missing" name
      in
      check_b "ready gauge dropped" true
        (gauge "proxion_serve_ready" = Some 0.0);
      check_b "draining gauge raised" true
        (gauge "proxion_serve_draining" = Some 1.0);
      (* While draining: health answers, readiness says no, queries are
         refused with the structured overloaded error... *)
      let health = get_ok (call_daemon d "health" []) in
      check_b "still alive" true (field "draining" health = Json.Bool true);
      let ready = get_ok (call_daemon d "ready" []) in
      check_b "no longer ready" true (field "ready" ready = Json.Bool false);
      (match call_daemon d "get_status" [] with
      | Error e -> check_i "drain gate" Wire.err_overloaded e.Wire.code
      | Ok _ -> Alcotest.fail "expected queries to be refused while draining");
      (* ...and the listener sheds fresh connections the same way. *)
      let fd = connect_raw port in
      expect_wire_error ~what:"drain shed" Wire.err_overloaded fd;
      Unix.close fd;
      (* wait completes the drain: domains joined, journal flushed. *)
      Daemon.wait d;
      (* Warm restart over the intact journal serves byte-identical
         answers — the drain lost nothing. *)
      let land2 = Generate.generate small_config in
      match Daemon.create ~config land2 with
      | Error e -> Alcotest.failf "warm restart after drain: %s" e
      | Ok d2 ->
          check_b "recovered warm" true (Daemon.recovered d2);
          let post =
            report_string
              (Serve.Store.report (Daemon.store d2)
                 ~unique_codes:(Daemon.unique_codes d2))
          in
          check_s "byte-identical after drain + warm restart" pre post)

(* Seeded garbage frames: whatever one connection throws at the daemon,
   the next well-formed request on a fresh connection is answered. *)
let test_frame_fuzzer () =
  let d, _ = make_daemon () in
  start_daemon d;
  let port = Daemon.port d in
  let prng = Dataset.Prng.create 0xF0CC1A in
  let raw_header n =
    let b = Bytes.create 4 in
    Bytes.set_uint8 b 0 ((n lsr 24) land 0xff);
    Bytes.set_uint8 b 1 ((n lsr 16) land 0xff);
    Bytes.set_uint8 b 2 ((n lsr 8) land 0xff);
    Bytes.set_uint8 b 3 (n land 0xff);
    Bytes.to_string b
  in
  let garbage () =
    match Dataset.Prng.int prng 4 with
    | 0 ->
        (* Raw byte soup, length prefix included. *)
        String.init
          (1 + Dataset.Prng.int prng 64)
          (fun _ -> Char.chr (Dataset.Prng.int prng 256))
    | 1 ->
        (* Header that lies: declares more than it sends. *)
        raw_header (32 + Dataset.Prng.int prng 64) ^ "{\"proxion_rpc\":1,\"met"
    | 2 ->
        (* Oversized declaration. *)
        raw_header (Wire.default_max_frame + 1 + Dataset.Prng.int prng 100_000)
    | _ ->
        (* Well-framed non-JSON. *)
        Wire.encode_frame "}{ not json !!"
  in
  for round = 1 to 25 do
    let fd = connect_raw port in
    let s = garbage () in
    (try ignore (Unix.write_substring fd s 0 (String.length s))
     with Unix.Unix_error _ -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ());
    match Serve.Client.connect ~timeout_ms:5_000 ~port () with
    | Error e -> Alcotest.failf "round %d: connect: %s" round e
    | Ok c ->
        (match Serve.Client.call c ~meth:"get_status" ~params:[] with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "round %d: call: %s" round e);
        Serve.Client.close c
  done;
  Daemon.stop d

(* The client-side receive timeout: a server that accepts the handshake
   but never answers cannot hang the caller. *)
let test_client_timeout () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.bind fd
        (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", 0));
      Unix.listen fd 4;
      let port =
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> Alcotest.fail "no port"
      in
      (* The kernel completes the handshake via the backlog; nothing
         ever accepts or replies. *)
      match Serve.Client.connect ~timeout_ms:300 ~port () with
      | Error e -> Alcotest.failf "connect: %s" e
      | Ok c ->
          let t0 = Unix.gettimeofday () in
          (match Serve.Client.call c ~meth:"get_status" ~params:[] with
          | Error e ->
              check_b "receive timeout surfaced" true
                (e = "receive timed out")
          | Ok _ -> Alcotest.fail "got an answer from a mute server");
          let waited = Unix.gettimeofday () -. t0 in
          check_b "timed out promptly" true (waited < 3.0);
          Serve.Client.close c)

(* ------------------------------------------------------------------ *)
(* Request-scoped tracing, the flight recorder, the ops console         *)
(* ------------------------------------------------------------------ *)

(* The acceptance scenario: one traced [query] against a 3-endpoint
   quorum-2 daemon.  The daemon adopts the client's context; its
   request span, the quorum-vote endpoint attempts and the EVM frames
   all carry the client's trace_id; the max-latency exemplar names it;
   the access log and the slow-request log (with the span tree) name
   it; and the store is left byte-identical — live queries are
   side-effect-free. *)
let test_traced_query () =
  with_json_log @@ fun log read_log ->
  let trace = Obs.Trace.create () in
  let endpoints =
    List.init 3 (fun i ->
        Resilience.Transport.endpoint (Printf.sprintf "archive-%d" i))
  in
  let resilience = Resilience.Transport.config ~endpoints ~quorum:2 () in
  (* An auto-stepping virtual clock makes the query's elapsed time
     deterministic (every clock read advances 2ms), so the slow-request
     path fires reliably; the deadlines are widened so the stepping
     cannot expire them. *)
  let config =
    Serve.Config.(
      daemon_config |> with_resilience resilience |> with_slow_ms (Some 1)
      |> with_clock (Obs.Clock.virtual_ ~start:1000.0 ~auto_step:0.002 ())
      |> with_request_deadline_ms 600_000
      |> with_idle_timeout_ms 600_000)
  in
  let d, land_ = make_daemon ~config ~log ~trace () in
  start_daemon d;
  let port = Daemon.port d in
  let some_proxy =
    List.find (fun l -> l.Generate.l_is_proxy) land_.Generate.labels
  in
  let addr_hex = Evm.Address.to_hex some_proxy.Generate.l_address in
  let before =
    report_string
      (Serve.Store.report (Daemon.store d) ~unique_codes:(Daemon.unique_codes d))
  in
  (* The client draws its own root context and carries it on the wire. *)
  let cctx = Obs.Trace.next_ctx (Obs.Trace.gen ~seed:99) in
  let tc =
    {
      Wire.tc_trace_id = Obs.Trace.id_to_hex cctx.Obs.Trace.trace_id;
      tc_span_id = Obs.Trace.id_to_hex cctx.Obs.Trace.span_id;
    }
  in
  (match Serve.Client.connect ~timeout_ms:30_000 ~port () with
  | Error e -> Alcotest.failf "connect: %s" e
  | Ok c ->
      (match
         Serve.Client.call ~trace:tc c ~meth:"query"
           ~params:[ ("address", Json.String addr_hex) ]
       with
      | Ok j ->
          check_b "live re-analysis ran" true (field "live" j = Json.Bool true);
          check_b "response echoes the address" true
            (field "address" j = Json.String addr_hex);
          check_b "response names the client's trace id" true
            (field "trace_id" j = Json.String tc.Wire.tc_trace_id)
      | Error e -> Alcotest.failf "query: %s" e);
      Serve.Client.close c);
  Daemon.stop d;
  let after =
    report_string
      (Serve.Store.report (Daemon.store d) ~unique_codes:(Daemon.unique_codes d))
  in
  check_s "store byte-identical after the live query" before after;
  (* One joined trace: request span, the re-analysis it ran, endpoint
     votes, EVM frames. *)
  let str key ev =
    match ev with
    | Json.Obj kvs -> (
        match List.assoc_opt key kvs with
        | Some (Json.String s) -> Some s
        | _ -> None)
    | _ -> None
  in
  let arg key ev =
    match ev with
    | Json.Obj kvs -> (
        match List.assoc_opt "args" kvs with
        | Some (Json.Obj args) -> (
            match List.assoc_opt key args with
            | Some (Json.String s) -> Some s
            | _ -> None)
        | _ -> None)
    | _ -> None
  in
  let num key ev =
    match ev with
    | Json.Obj kvs -> (
        match List.assoc_opt key kvs with
        | Some (Json.Int n) -> float_of_int n
        | Some (Json.Float f) -> f
        | _ -> Alcotest.failf "span without %s" key)
    | _ -> Alcotest.fail "span not an object"
  in
  let joined =
    List.filter
      (fun ev -> arg "trace_id" ev = Some tc.Wire.tc_trace_id)
      (trace_events trace)
  in
  (match joined with
  | _ :: _ as evs ->
      let cats = List.filter_map (str "cat") evs in
      let requests =
        List.filter (fun ev -> str "cat" ev = Some "request") evs
      in
      check_i "exactly one request span" 1 (List.length requests);
      let req = List.hd requests in
      check_b "request span is the query" true (str "name" req = Some "query");
      check_b "request span's parent is the client's span" true
        (arg "parent_span_id" req = Some tc.Wire.tc_span_id);
      check_b "endpoint attempt spans joined the trace" true
        (List.mem "rpc" cats);
      check_b "EVM frame spans joined the trace" true (List.mem "evm" cats);
      check_b "the run span joined the trace" true (List.mem "run" cats);
      check_b "stage spans joined the trace" true (List.mem "stage" cats);
      (* One clock: the analysis the query caused nests inside it. *)
      let start ev = num "ts" ev in
      let stop ev = start ev +. num "dur" ev in
      List.iter
        (fun ev ->
          if
            List.mem (str "cat" ev)
              [ Some "run"; Some "batch"; Some "item"; Some "stage" ]
          then
            check_b "engine span inside the request span" true
              (start req -. 1.0 <= start ev && stop ev <= stop req +. 1.0))
        evs;
      let endpoints_seen =
        List.sort_uniq compare (List.filter_map (arg "endpoint") evs)
      in
      check_b "quorum votes span distinct endpoints" true
        (List.length endpoints_seen >= 2)
  | _ -> Alcotest.fail "no spans recorded for the request trace");
  (* The max-latency exemplar on the request histogram names the id. *)
  let registry = Daemon.registry d in
  (match Obs.Metrics.find registry "proxion_serve_request_seconds" with
  | None -> Alcotest.fail "request histogram missing"
  | Some fam -> (
      match
        Obs.Metrics.exemplar ~labels:[ ("method", "query") ] registry fam
      with
      | Some (id, v) ->
          check_s "exemplar names the trace id" tc.Wire.tc_trace_id id;
          check_b "exemplar value is the observed latency" true (v > 0.0)
      | None -> Alcotest.fail "no exemplar on the query series"));
  (* The same id joins the daemon's logs: the access line, and the
     slow-request line carrying the full span tree. *)
  let log_text = read_log () in
  check_b "access log names the trace id" true
    (contains ~needle:tc.Wire.tc_trace_id log_text);
  check_b "slow request logged" true (contains ~needle:"slow request" log_text);
  check_b "slow log carries the span tree" true
    (contains ~needle:"\"spans\"" log_text)

(* The flight ring dumped at drain is a pure function of the recording
   order and the (virtual) clock: two identical daemons produce
   byte-identical dumps. *)
let test_flight_dump_determinism () =
  let run () =
    let path = Filename.temp_file "proxion_flight" ".json" in
    let clock = Obs.Clock.virtual_ ~start:100.0 ~auto_step:0.25 () in
    let config =
      Serve.Config.(
        daemon_config |> with_clock clock |> with_flight_capacity 32
        |> with_flight_dump (Some path))
    in
    let d, _ = make_daemon ~config () in
    ignore (Daemon.advance d);
    ignore (Daemon.advance d);
    Daemon.request_drain d;
    let text = In_channel.with_open_text path In_channel.input_all in
    Sys.remove path;
    text
  in
  let a = run () in
  check_b "dump written" true (String.length a > 0);
  (match Json.parse a with
  | Error e -> Alcotest.failf "flight dump does not parse: %s" e
  | Ok parsed ->
      check_i "dump capacity" 32 (int_field "capacity" parsed);
      let kinds =
        match field "events" parsed with
        | Json.List evs ->
            List.filter_map
              (fun ev ->
                match ev with
                | Json.Obj kvs -> (
                    match List.assoc_opt "kind" kvs with
                    | Some (Json.String k) -> Some k
                    | _ -> None)
                | _ -> None)
              evs
        | _ -> Alcotest.fail "dump events missing"
      in
      check_b "advances recorded" true (List.mem "advance" kinds);
      check_b "the drain recorded" true (List.mem "drain" kinds));
  check_s "drain dump byte-identical across identical runs" a (run ())

(* The ops console: Prometheus-style quantile math over a snapshot's
   cumulative buckets, snapshot digestion and the rendered dashboard. *)
let test_ops_console () =
  let checkf msg e a = Alcotest.(check (float 1e-9)) msg e a in
  let quantile = Obs.Metrics.quantile in
  let hist = [ (1.0, 50.0); (2.0, 90.0); (4.0, 100.0); (infinity, 100.0) ] in
  checkf "p50 lands on the first bound" 1.0 (quantile hist 0.50);
  checkf "p90 lands on the second bound" 2.0 (quantile hist 0.90);
  checkf "p99 interpolates inside the third" 3.8 (quantile hist 0.99);
  checkf "overflow clamps to the last finite bound" 1.0
    (quantile [ (1.0, 2.0); (infinity, 5.0) ] 0.99);
  checkf "empty histogram reads zero" 0.0 (quantile [] 0.5);
  (* A live daemon's snapshot digests into the dashboard. *)
  let d, _ = make_daemon () in
  start_daemon d;
  let port = Daemon.port d in
  (match Serve.Client.connect ~timeout_ms:5_000 ~port () with
  | Error e -> Alcotest.failf "connect: %s" e
  | Ok c ->
      for i = 1 to 3 do
        match Serve.Client.call c ~meth:"get_status" ~params:[] with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "call %d: %s" i e
      done;
      Serve.Client.close c);
  let mjson =
    get_ok (call_daemon d "metrics" [ ("format", Json.String "json") ])
  in
  let health = get_ok (call_daemon d "health" []) in
  let fl = get_ok (call_daemon d "flight" []) in
  Daemon.stop d;
  let view =
    match Serve.Ops.of_metrics_json mjson with
    | Ok v -> v
    | Error e -> Alcotest.failf "ops snapshot parse: %s" e
  in
  check_b "requests counted" true
    (Serve.Ops.scalar_total view "proxion_serve_requests_total" >= 2.0);
  (* A series the readers reject is an error naming the field. *)
  (match
     Serve.Ops.of_metrics_json
       (Json.Obj
          [
            ( "metrics",
              Json.List
                [
                  Json.Obj
                    [
                      ("name", Json.String "proxion_serve_requests_total");
                      ("kind", Json.String "counter");
                      ( "series",
                        Json.List
                          [
                            Json.Obj
                              [
                                ("labels", Json.Obj []);
                                ("value", Json.String "3");
                              ];
                          ] );
                    ];
                ] );
          ])
   with
  | Error e ->
      check_b "the error names the field" true
        (contains ~needle:"\"value\"" e)
  | Ok _ -> Alcotest.fail "a string counter value was read");
  let view = Serve.Ops.with_health view health in
  check_b "health folds the draining flag" false view.Serve.Ops.v_draining;
  let view = Serve.Ops.with_flight ~tail:4 view fl in
  check_b "flight kinds counted" true (view.Serve.Ops.v_flight <> []);
  check_b "flight tail bounded" true
    (List.length view.Serve.Ops.v_flight_tail <= 4);
  checkf "no rate without a previous poll" 0.0
    (Serve.Ops.rate ~prev:None ~dt:1.0 view "proxion_serve_requests_total");
  checkf "flat between identical polls" 0.0
    (Serve.Ops.rate ~prev:(Some view) ~dt:1.0 view
       "proxion_serve_requests_total");
  let text = Serve.Ops.render ~prev:view ~dt:1.0 view in
  check_b "dashboard reports serving" true (contains ~needle:"serving" text);
  check_b "per-method table present" true (contains ~needle:"get_status" text);
  check_b "flight ring rendered" true (contains ~needle:"flight ring" text)

(* ------------------------------------------------------------------ *)
(* Journal fingerprints                                                *)
(* ------------------------------------------------------------------ *)

(* A daemon journal binds to the landscape it was written for.  After two
   advances, a daemon over [-n 401 --seed 5] replays to the same height as
   one over [-n 400 --seed 5], so only the fingerprint tells them apart. *)
let test_journal_refuses_other_landscape () =
  let path = temp_journal () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let gen total =
        Generate.generate { Generate.default_config with total; seed = 5 }
      in
      let config =
        Serve.Config.(
          default |> with_analysis analysis_config |> with_workers 1
          |> with_journal (Some path)
          |> with_journal_fsync false)
      in
      let d =
        match Daemon.create ~config (gen 400) with
        | Ok d -> d
        | Error e -> Alcotest.failf "daemon create failed: %s" e
      in
      ignore (Daemon.advance d);
      ignore (Daemon.advance d);
      Daemon.stop d;
      let written = Generate.fingerprint (gen 400) in
      let other = gen 401 in
      let this = Generate.fingerprint other in
      (match Daemon.create ~config other with
      | Ok _ -> Alcotest.fail "a journal from another landscape was accepted"
      | Error e ->
          check_b "the error names the journal's fingerprint" true
            (contains ~needle:written e);
          check_b "the error names this landscape's fingerprint" true
            (contains ~needle:this e));
      (* The refusal leaves the journal intact for its own landscape. *)
      match Daemon.create ~config (gen 400) with
      | Error e -> Alcotest.failf "recovery after a refusal: %s" e
      | Ok d2 ->
          check_b "recovered warm" true (Daemon.recovered d2);
          check_i "advances restored" 2 (Daemon.advances_applied d2);
          Daemon.stop d2)

(* The serve-smoke script of CI, in process: a daemon configured as
   `proxion serve -n 400 --seed 5` configures it answers four requests,
   each printed as `proxion query` prints it, byte for byte the golden
   transcripts under test/golden/serve. *)
let test_golden_transcripts () =
  let land_ =
    Generate.generate
      { Generate.default_config with Generate.total = 400; seed = 5 }
  in
  let d =
    match Daemon.create land_ with
    | Ok d -> d
    | Error e -> Alcotest.failf "daemon create failed: %s" e
  in
  let golden file =
    In_channel.with_open_text (Filename.concat "golden/serve" file)
      In_channel.input_all
  in
  List.iter
    (fun (file, meth, params) ->
      check_s file (golden file)
        (Json.to_string ~pretty:true (get_ok (call_daemon d meth params))
        ^ "\n"))
    [
      ("status_before.json", "get_status", []);
      ("findings_head.json", "list_findings", [ ("limit", Json.Int 5) ]);
      ("advance.json", "advance", [ ("count", Json.Int 2) ]);
      ("status_after.json", "get_status", []);
    ];
  Daemon.stop d

(* A daemon tracing to a file keeps no span: once a traced advance has
   returned — before the daemon stops — its trace id, on the stages it
   re-ran, is already in the file; closed after the stop, the file is a
   whole trace document. *)
let test_streamed_trace () =
  let path = Filename.temp_file "proxion_daemon_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let trace =
        match Obs.Trace.to_file path with
        | Ok tr -> tr
        | Error e -> Alcotest.failf "cannot open the trace file: %s" e
      in
      let d, _ = make_daemon ~trace () in
      let cctx = Obs.Trace.next_ctx (Obs.Trace.gen ~seed:5) in
      let tc =
        {
          Wire.tc_trace_id = Obs.Trace.id_to_hex cctx.Obs.Trace.trace_id;
          tc_span_id = Obs.Trace.id_to_hex cctx.Obs.Trace.span_id;
        }
      in
      let payload =
        Wire.request_to_string ~trace:tc ~id:1 ~meth:"advance"
          ~params:[ ("count", Json.Int 1) ]
          ()
      in
      (match Wire.response_of_string (snd (Daemon.handle d payload)) with
      | Ok { Wire.rs_result = Ok _; _ } -> ()
      | _ -> Alcotest.fail "traced advance failed");
      let on_disk = In_channel.with_open_text path In_channel.input_all in
      check_b "the advance's trace id is on disk before the stop" true
        (contains ~needle:tc.Wire.tc_trace_id on_disk);
      Daemon.stop d;
      Obs.Trace.close trace;
      match
        Json.parse (In_channel.with_open_text path In_channel.input_all)
      with
      | Ok
          (Json.Obj
            [
              ("traceEvents", Json.List evs);
              ("displayTimeUnit", Json.String "ms");
            ]) ->
          let joined_stage = function
            | Json.Obj kvs -> (
                List.assoc_opt "cat" kvs = Some (Json.String "stage")
                &&
                match List.assoc_opt "args" kvs with
                | Some (Json.Obj args) ->
                    List.assoc_opt "trace_id" args
                    = Some (Json.String tc.Wire.tc_trace_id)
                | _ -> false)
            | _ -> false
          in
          check_b "the advance's stages carry its trace id" true
            (List.exists joined_stage evs)
      | Ok _ -> Alcotest.fail "the closed file is not a trace document"
      | Error e -> Alcotest.failf "the closed file does not parse: %s" e)

(* Restarted warm, a daemon runs with the batch size and worker count
   it was given, not those of the daemon that wrote its journal: a
   journal written at 1 domain and batch size 16 resumes at 2 domains
   and batch size 8, which the spans of a traced advance show. *)
let test_warm_daemon_takes_its_flags () =
  let path = temp_journal () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let gen = { Generate.quick_config with Generate.total = 300; seed = 5 } in
      let config analysis =
        Serve.Config.(
          daemon_config |> with_analysis analysis |> with_journal (Some path)
          |> with_journal_fsync false)
      in
      (match
         Daemon.create ~config:(config analysis_config) (Generate.generate gen)
       with
      | Ok d -> Daemon.stop d
      | Error e -> Alcotest.failf "cold start failed: %s" e);
      let trace = Obs.Trace.create () in
      let warm =
        Proxion.Analysis.Config.(default |> with_batch_size 8 |> with_domains 2)
      in
      match
        Daemon.create ~config:(config warm) ~trace (Generate.generate gen)
      with
      | Error e -> Alcotest.failf "warm start failed: %s" e
      | Ok d ->
          check_b "recovered warm" true (Daemon.recovered d);
          let ctx = Obs.Trace.next_ctx (Obs.Trace.gen ~seed:5) in
          ignore (Daemon.advance ~ctx d);
          ignore (Daemon.advance ~ctx d);
          Daemon.stop d;
          let trace_id = Obs.Trace.id_to_hex ctx.Obs.Trace.trace_id in
          let member key = function
            | Json.Obj kvs -> List.assoc_opt key kvs
            | _ -> None
          in
          let joined cat ev =
            member "cat" ev = Some (Json.String cat)
            && Option.bind (member "args" ev) (member "trace_id")
               = Some (Json.String trace_id)
          in
          let ints cat key of_ev =
            List.filter_map
              (fun ev ->
                if not (joined cat ev) then None
                else
                  match Option.bind (of_ev ev) (member key) with
                  | Some (Json.Int n) -> Some n
                  | _ -> None)
              (trace_events trace)
          in
          let sizes = ints "batch" "size" (member "args") in
          check_b "the advances ran in batches" true (sizes <> []);
          check_b "batches hold at most the daemon's 8 contracts" true
            (List.for_all (fun n -> n <= 8) sizes);
          check_b "a batch holds the daemon's 8 contracts" true
            (List.mem 8 sizes);
          check_b "items ran on the second worker's lane" true
            (List.mem 2 (ints "item" "tid" Option.some)))

(* A bad \u escape is a parse error like any other over TCP: -32700 with
   a null id, and the same connection keeps serving. *)
let test_bad_escape_over_tcp () =
  let d, _ = make_daemon () in
  start_daemon d;
  let fd = connect_raw (Daemon.port d) in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  let call what payload =
    Wire.write_frame fd payload;
    match Wire.read_frame fd with
    | Error e -> Alcotest.failf "%s: %s" what (Wire.read_error_to_string e)
    | Ok reply -> (
        match Wire.response_of_string reply with
        | Ok r -> r
        | Error e -> Alcotest.failf "%s reply: %s" what e)
  in
  let r = call "bad escape" bad_escape_request in
  check_b "the id is null" true (r.Wire.rs_id = Json.Null);
  (match r.Wire.rs_result with
  | Error e ->
      check_i "bad escape answered with -32700" Wire.err_parse e.Wire.code
  | Ok _ -> Alcotest.fail "a bad escape was accepted");
  (match
     (call "get_status"
        (Wire.request_to_string ~id:2 ~meth:"get_status" ~params:[] ()))
       .Wire.rs_result
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "get_status after -32700: %s" e.Wire.message);
  Unix.close fd;
  Daemon.stop d

let suite =
  [
    Alcotest.test_case "frame round-trip" `Quick test_frame_roundtrip;
    Alcotest.test_case "torn frames" `Quick test_frame_torn;
    Alcotest.test_case "oversized frames" `Quick test_frame_oversized;
    Alcotest.test_case "request parsing" `Quick test_request_parse;
    Alcotest.test_case "response parsing" `Quick test_response_parse;
    Alcotest.test_case "trace context on the wire" `Quick test_trace_field;
    QCheck_alcotest.to_alcotest stats_roundtrip_prop;
    Alcotest.test_case "report schema round-trip" `Quick test_report_roundtrip;
    Alcotest.test_case "query dispatch" `Quick test_queries;
    Alcotest.test_case "incremental = cold re-run" `Quick
      test_incremental_identity;
    Alcotest.test_case "a query reads the archive, an advance replays" `Quick
      test_query_reads_the_archive;
    Alcotest.test_case "warm recovery from journal" `Quick test_warm_recovery;
    Alcotest.test_case "concurrent clients over TCP" `Quick
      test_concurrent_clients;
    Alcotest.test_case "EPIPE mid-reply does not kill the daemon" `Quick
      test_sigpipe_mid_reply;
    Alcotest.test_case "oversized response answered with 1001" `Quick
      test_oversized_response;
    Alcotest.test_case "admission control sheds past max_conns" `Quick
      test_admission_shed;
    Alcotest.test_case "idle deadline cuts a slowloris writer" `Quick
      test_idle_timeout;
    Alcotest.test_case "request deadlines under a virtual clock" `Quick
      test_deadline_virtual_clock;
    Alcotest.test_case "graceful drain with warm-restart identity" `Quick
      test_drain_lifecycle;
    Alcotest.test_case "frame fuzzer leaves the daemon serving" `Quick
      test_frame_fuzzer;
    Alcotest.test_case "client receive timeout" `Quick test_client_timeout;
    Alcotest.test_case "traced query joins client and daemon spans" `Quick
      test_traced_query;
    Alcotest.test_case "flight dump determinism under a virtual clock" `Quick
      test_flight_dump_determinism;
    Alcotest.test_case "ops console digest and quantiles" `Quick
      test_ops_console;
    Alcotest.test_case "warm start refuses another landscape's journal" `Quick
      test_journal_refuses_other_landscape;
    Alcotest.test_case "scripted queries match the golden transcripts" `Quick
      test_golden_transcripts;
    Alcotest.test_case "a streaming trace holds each advance before the stop"
      `Quick test_streamed_trace;
    Alcotest.test_case "a warm daemon runs with the flags it was started with"
      `Quick test_warm_daemon_takes_its_flags;
    Alcotest.test_case
      "a bad escape over TCP gets -32700 and the connection serves on" `Quick
      test_bad_escape_over_tcp;
    Alcotest.test_case "severity filters answer by rank, most severe first"
      `Quick test_severity_filters;
  ]
