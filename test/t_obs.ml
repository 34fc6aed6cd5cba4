(* Telemetry subsystem: the metrics registry (exposition validity, bucket
   determinism, shard absorption, percentile interpolation), the span
   tracer (Chrome trace JSON round-trip, coordinator-lane nesting), the
   structured log sink (JSONL well-formedness, level filtering) and the
   clock abstraction — plus the end-to-end contract: a fully
   instrumented chaos run snapshots byte-identically at every worker
   count once volatile families are suppressed. *)

module Generate = Dataset.Generate
module Json = Report.Json

let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)
let check_s = Alcotest.(check string)

let checkf msg expected actual =
  Alcotest.(check (float 1e-9)) msg expected actual

let contains ~needle haystack =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i =
    if i + nn > nh then false
    else String.sub haystack i nn = needle || at (i + 1)
  in
  at 0

(* --- clock ------------------------------------------------------------- *)

let test_clock () =
  let c = Obs.Clock.virtual_ ~start:10.0 () in
  checkf "virtual reads the start value" 10.0 (Obs.Clock.now c);
  checkf "no auto step: reads are stable" 10.0 (Obs.Clock.now c);
  Obs.Clock.sleep c 2.5;
  checkf "sleep moves the clock" 12.5 (Obs.Clock.now c);
  Obs.Clock.sleep c (-5.0);
  checkf "negative sleep ignored" 12.5 (Obs.Clock.now c);
  Obs.Clock.advance_to c 20.0;
  checkf "advance_to jumps to the deadline" 20.0 (Obs.Clock.now c);
  Obs.Clock.advance_to c 15.0;
  checkf "a passed deadline leaves the clock" 20.0 (Obs.Clock.now c);
  let c = Obs.Clock.virtual_ ~auto_step:0.25 () in
  checkf "auto-step first read" 0.0 (Obs.Clock.now c);
  checkf "auto-step second read" 0.25 (Obs.Clock.now c);
  checkf "auto-step third read" 0.5 (Obs.Clock.now c);
  let real_now = Obs.Clock.now Obs.Clock.real in
  check_b "real clock reads a plausible epoch" true (real_now > 1.0e9)

(* --- metrics: recording, exposition, lint ------------------------------ *)

let sample_registry () =
  let m = Obs.Metrics.create () in
  let c = Obs.Metrics.counter m ~help:"Requests served" "test_requests_total" in
  let g = Obs.Metrics.gauge m ~help:"Queue depth" "test_queue_depth" in
  let h =
    Obs.Metrics.histogram m ~help:"Latency" ~buckets:[ 0.1; 1.0; 10.0 ]
      "test_latency_seconds"
  in
  Obs.Metrics.inc m c ~labels:[ ("method", "eth_getCode") ] ~by:2.0;
  Obs.Metrics.inc m c ~labels:[ ("method", "eth_getStorageAt") ];
  Obs.Metrics.set m g 7.0;
  List.iter (Obs.Metrics.observe m h) [ 0.05; 0.5; 5.0; 50.0 ];
  m

let test_exposition_lints () =
  let m = sample_registry () in
  let text = Obs.Metrics.to_prometheus m in
  (match Obs.Metrics.lint text with
  | Ok () -> ()
  | Error es -> Alcotest.fail ("lint rejected own exposition: " ^ String.concat "; " es));
  check_b "counter sample present" true
    (contains ~needle:"test_requests_total{method=\"eth_getCode\"} 2" text);
  check_b "gauge sample present" true
    (contains ~needle:"test_queue_depth 7" text);
  check_b "+Inf bucket present" true
    (contains ~needle:"test_latency_seconds_bucket{le=\"+Inf\"} 4" text);
  check_b "histogram count present" true
    (contains ~needle:"test_latency_seconds_count 4" text);
  check_b "help header present" true
    (contains ~needle:"# HELP test_requests_total Requests served" text);
  (* JSON snapshot parses back. *)
  (match Json.parse (Json.to_string (Obs.Metrics.to_json m)) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("JSON snapshot does not parse: " ^ e));
  (* Registration sanity. *)
  check_b "find sees a registered family" true
    (Obs.Metrics.find m "test_requests_total" <> None);
  check_b "find misses unknown families" true
    (Obs.Metrics.find m "nope_total" = None);
  (match Obs.Metrics.counter m "test_queue_depth" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind mismatch accepted");
  match Obs.Metrics.counter m "bad name!" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "invalid metric name accepted"

let test_lint_catches_breakage () =
  let expect_errors what text =
    match Obs.Metrics.lint text with
    | Ok () -> Alcotest.fail (what ^ ": lint accepted a broken exposition")
    | Error _ -> ()
  in
  expect_errors "orphan sample" "orphan_total 1\n";
  expect_errors "unparsable value" "# TYPE x counter\nx one\n";
  expect_errors "duplicate series"
    "# TYPE x counter\nx{a=\"1\"} 1\nx{a=\"1\"} 2\n";
  expect_errors "decreasing cumulative buckets"
    "# TYPE h histogram\n\
     h_bucket{le=\"1\"} 5\n\
     h_bucket{le=\"+Inf\"} 3\n\
     h_sum 2\n\
     h_count 3\n";
  expect_errors "missing +Inf bucket"
    "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_sum 2\nh_count 5\n";
  expect_errors "+Inf disagrees with count"
    "# TYPE h histogram\n\
     h_bucket{le=\"1\"} 2\n\
     h_bucket{le=\"+Inf\"} 5\n\
     h_sum 2\n\
     h_count 6\n"

let test_bucket_determinism () =
  (* The same multiset of observations, in different interleavings, must
     render byte-identically. *)
  let values = [ 0.05; 0.5; 0.5; 5.0; 50.0; 0.25 ] in
  let build order =
    let m = Obs.Metrics.create () in
    let h =
      Obs.Metrics.histogram m ~help:"Latency" ~buckets:[ 0.1; 1.0; 10.0 ]
        "d_latency_seconds"
    in
    let c = Obs.Metrics.counter m ~help:"Hits" "d_hits_total" in
    List.iter (fun v -> Obs.Metrics.observe m h v; Obs.Metrics.inc m c) order;
    Obs.Metrics.to_prometheus m
  in
  check_s "reversed observation order" (build values) (build (List.rev values))

let test_summarize () =
  let m = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram m ~buckets:[ 1.0; 2.0; 4.0 ] "p_hist" in
  for _ = 1 to 50 do Obs.Metrics.observe m h 0.5 done;
  for _ = 1 to 40 do Obs.Metrics.observe m h 1.5 done;
  for _ = 1 to 10 do Obs.Metrics.observe m h 3.0 done;
  match Obs.Metrics.summarize m h with
  | None -> Alcotest.fail "summarize returned None on a populated histogram"
  | Some s ->
      check_i "count" 100 s.Obs.Metrics.s_count;
      checkf "p50 interpolates to the first bound" 1.0 s.Obs.Metrics.s_p50;
      checkf "p90 interpolates to the second bound" 2.0 s.Obs.Metrics.s_p90;
      checkf "p99 interpolates inside the third bucket" 3.8 s.Obs.Metrics.s_p99;
      (* +Inf observations clamp to the largest finite bound. *)
      let m2 = Obs.Metrics.create () in
      let h2 = Obs.Metrics.histogram m2 ~buckets:[ 1.0 ] "p_hist2" in
      Obs.Metrics.observe m2 h2 100.0;
      let s2 = Option.get (Obs.Metrics.summarize m2 h2) in
      checkf "overflow clamps to the last finite bound" 1.0 s2.Obs.Metrics.s_p99;
      (* The JSON snapshot exposes cumulative bucket counts, like the
         text exposition — a consumer's quantile walk must find the
         rank inside a finite bucket, not fall off the +Inf end. *)
      let counts =
        match Obs.Metrics.to_json m with
        | Json.Obj top -> (
            match List.assoc "metrics" top with
            | Json.List [ Json.Obj fam ] -> (
                match List.assoc "series" fam with
                | Json.List [ Json.Obj series ] -> (
                    match List.assoc "buckets" series with
                    | Json.List bs ->
                        List.map
                          (fun b ->
                            match b with
                            | Json.Obj kvs -> (
                                match List.assoc "count" kvs with
                                | Json.Int n -> float_of_int n
                                | Json.Float f -> f
                                | _ -> nan)
                            | _ -> nan)
                          bs
                    | _ -> [])
                | _ -> [])
            | _ -> [])
        | _ -> []
      in
      check_b "JSON buckets are cumulative" true
        (counts = [ 50.0; 90.0; 100.0; 100.0 ])

(* --- the end-to-end contract: instrumented chaos runs ------------------ *)

let small_config = { Generate.quick_config with Generate.total = 220; seed = 31 }

let instrumented_run ?(fault_rate = 0.0) ?trace ~domains () =
  let land_ = Generate.generate small_config in
  let config =
    Proxion.Analysis.Config.(
      default |> with_batch_size 16 |> with_domains domains)
  in
  let resilience =
    if fault_rate > 0.0 then
      Resilience.Transport.config
        ~plan:(Resilience.Fault_plan.spec ~seed:7 ~fault_rate ())
        ()
    else Resilience.Transport.default_config
  in
  let t =
    Proxion.Analyzer.create ~config ~resilience ~chain:land_.Generate.chain
      ~source:land_.Generate.source_of ()
  in
  let registry = Obs.Metrics.create () in
  Proxion.Analyzer.instrument ?trace registry t;
  Proxion.Analyzer.submit_all t;
  Proxion.Analyzer.run t;
  (registry, t)

let test_snapshot_identical_across_domains () =
  let expo registry =
    Obs.Metrics.to_prometheus ~suppress_volatile:true registry
  in
  let r1, _ = instrumented_run ~fault_rate:0.05 ~domains:1 () in
  let r4, _ = instrumented_run ~fault_rate:0.05 ~domains:4 () in
  let e1 = expo r1 and e4 = expo r4 in
  (match Obs.Metrics.lint e1 with
  | Ok () -> ()
  | Error es ->
      Alcotest.fail ("chaos exposition invalid: " ^ String.concat "; " es));
  check_b "chaos run recorded retries" true
    (contains ~needle:"proxion_retries_total" e1);
  check_b "per-method RPC attempts recorded" true
    (contains ~needle:"proxion_rpc_attempts_total{method=" e1);
  check_s "DOMAINS=4 snapshot is byte-identical to DOMAINS=1" e1 e4;
  (* JSON snapshots too, with the timestamp suppressed. *)
  let js r = Json.to_string (Obs.Metrics.to_json ~suppress_volatile:true r) in
  check_s "JSON snapshots byte-identical" (js r1) (js r4);
  (* The volatile families exist but are dropped from the diffable view. *)
  let full = Obs.Metrics.to_prometheus r1 in
  check_b "volatile stage timings exist unsuppressed" true
    (contains ~needle:"proxion_stage_seconds_bucket" full);
  check_b "volatile families suppressed in the diffable view" false
    (contains ~needle:"proxion_stage_seconds_bucket" e1)

(* --- span tracer ------------------------------------------------------- *)

let jget key = function
  | Json.Obj kvs -> List.assoc_opt key kvs
  | _ -> None

let jstr key obj =
  match jget key obj with
  | Some (Json.String s) -> s
  | _ -> Alcotest.fail (Printf.sprintf "missing string field %S" key)

let jnum key obj =
  match jget key obj with
  | Some (Json.Int i) -> float_of_int i
  | Some (Json.Float f) -> f
  | _ -> Alcotest.fail (Printf.sprintf "missing numeric field %S" key)

(* The document a collector writes, as text. *)
let trace_text tr =
  let path = Filename.temp_file "proxion_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc -> Obs.Trace.write tr oc);
      In_channel.with_open_text path In_channel.input_all)

(* Chrome trace JSON round-trips the repo's own parser. *)
let parse_trace text =
  let parsed =
    match Json.parse text with
    | Ok v -> v
    | Error e -> Alcotest.fail ("trace JSON does not parse: " ^ e)
  in
  check_s "display unit" "ms" (jstr "displayTimeUnit" parsed);
  match jget "traceEvents" parsed with
  | Some (Json.List l) -> l
  | _ -> Alcotest.fail "traceEvents missing"

let trace_events tr = parse_trace (trace_text tr)

let test_trace_roundtrip_and_nesting () =
  let trace = Obs.Trace.create () in
  let _, _ = instrumented_run ~trace ~domains:1 () in
  check_b "trace recorded events" true (Obs.Trace.count trace > 0);
  let events = trace_events trace in
  check_i "every recorded event serialized" (Obs.Trace.count trace)
    (List.length events);
  List.iter
    (fun ev ->
      let ph = jstr "ph" ev in
      check_b "known phase" true (ph = "X" || ph = "i");
      ignore (jnum "ts" ev);
      ignore (jnum "pid" ev);
      ignore (jnum "tid" ev);
      if ph = "X" then check_b "complete spans have dur" true (jnum "dur" ev >= 0.0))
    events;
  let spans cat =
    List.filter (fun ev -> jstr "ph" ev = "X" && jstr "cat" ev = cat) events
  in
  let runs = spans "run" and batches = spans "batch" in
  check_i "exactly one run span" 1 (List.length runs);
  check_b "several batch spans" true (List.length batches > 1);
  check_b "item spans present" true (spans "item" <> []);
  check_b "stage spans present" true (spans "stage" <> []);
  check_b "run and batches on track 0" true
    (List.for_all (fun ev -> jnum "tid" ev = 0.0) (runs @ batches));
  (* Batches run one after another, and are recorded in index order. *)
  let batch_ts = List.map (jnum "ts") batches in
  check_b "batch timeline is non-decreasing" true
    (List.for_all2 ( <= ) batch_ts (List.tl batch_ts @ [ infinity ]))

(* --- span contexts and live spans -------------------------------------- *)

let hex16 s =
  String.length s = 16
  && String.for_all
       (fun c -> (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
       s

let test_trace_ctx_ids () =
  let g1 = Obs.Trace.gen ~seed:42 and g2 = Obs.Trace.gen ~seed:42 in
  let a = Obs.Trace.next_ctx g1 and b = Obs.Trace.next_ctx g2 in
  check_b "same seed, same first ctx" true (a = b);
  let a2 = Obs.Trace.next_ctx g1 and b2 = Obs.Trace.next_ctx g2 in
  check_b "streams advance in lockstep" true (a2 = b2);
  check_b "the stream moves" true (a <> a2);
  check_b "different seed, different ctx" true
    (a <> Obs.Trace.next_ctx (Obs.Trace.gen ~seed:43));
  (* Wire encoding round-trips and rejects everything else. *)
  let hex = Obs.Trace.id_to_hex a.Obs.Trace.trace_id in
  check_b "16 lowercase hex chars" true (hex16 hex);
  (match Obs.Trace.id_of_hex hex with
  | Some back -> check_b "hex round-trips" true (back = a.Obs.Trace.trace_id)
  | None -> Alcotest.fail "own hex encoding rejected");
  check_s "zero pads" "0000000000000001" (Obs.Trace.id_to_hex 1L);
  List.iter
    (fun bad ->
      check_b
        (Printf.sprintf "id_of_hex rejects %S" bad)
        true
        (Obs.Trace.id_of_hex bad = None))
    [
      "";
      "abc";
      String.uppercase_ascii hex;
      hex ^ "0";
      String.make 16 'x';
      String.make 16 ' ';
    ];
  (* Child derivation: deterministic, same trace, index-distinct. *)
  let c0 = Obs.Trace.child a ~index:0 in
  check_b "child is deterministic" true (c0 = Obs.Trace.child a ~index:0);
  check_b "child keeps the trace id" true
    (c0.Obs.Trace.trace_id = a.Obs.Trace.trace_id);
  check_b "indexes derive distinct span ids" true
    (c0.Obs.Trace.span_id <> (Obs.Trace.child a ~index:1).Obs.Trace.span_id);
  check_b "child differs from the parent span" true
    (c0.Obs.Trace.span_id <> a.Obs.Trace.span_id)

let test_live_span_tree () =
  let clock = Obs.Clock.virtual_ ~auto_step:1.0 () in
  let tr = Obs.Trace.create ~clock () in
  let g = Obs.Trace.gen ~seed:7 in
  let client = Obs.Trace.next_ctx g in
  let ctx = Obs.Trace.child client ~index:0 in
  Obs.Trace.hold tr ctx;
  let root =
    Obs.Trace.start_span ~cat:"request" ~parent_ctx:client ~ctx tr "query"
  in
  let rpc =
    Obs.Trace.start_span ~cat:"rpc" ~parent_ctx:ctx
      ~ctx:(Obs.Trace.child ctx ~index:0)
      tr "eth_getCode"
  in
  Obs.Trace.finish_span rpc;
  Obs.Trace.finish_span root;
  let before = Obs.Trace.count tr in
  Obs.Trace.finish_span root;
  check_i "finish_span is idempotent" before (Obs.Trace.count tr);
  (* An unrelated trace in the same collector stays out of the tree. *)
  let stray = Obs.Trace.start_span ~ctx:(Obs.Trace.next_ctx g) tr "other" in
  Obs.Trace.finish_span stray;
  let tid_hex = Obs.Trace.id_to_hex ctx.Obs.Trace.trace_id in
  match Obs.Trace.release tr ctx with
  | Json.List [ rpc_ev; root_ev ] ->
      (* Arrival order: the leaf finished first. *)
      check_s "leaf name" "eth_getCode" (jstr "name" rpc_ev);
      check_s "root name" "query" (jstr "name" root_ev);
      let args ev =
        match jget "args" ev with
        | Some o -> o
        | None -> Alcotest.fail "span carries no args"
      in
      check_s "root carries the trace id" tid_hex (jstr "trace_id" (args root_ev));
      check_s "the leaf joins the trace" tid_hex
        (jstr "trace_id" (args rpc_ev));
      check_b "the leaf has its own span id" true
        (jstr "span_id" (args rpc_ev) <> jstr "span_id" (args root_ev));
      check_s "cross-process parent recorded"
        (Obs.Trace.id_to_hex client.Obs.Trace.span_id)
        (jstr "parent_span_id" (args root_ev));
      check_s "leaf's parent is the request span"
        (Obs.Trace.id_to_hex ctx.Obs.Trace.span_id)
        (jstr "parent_span_id" (args rpc_ev))
  | _ -> Alcotest.fail "expected exactly the two spans of this trace"

(* The engine's spans are recorded as the engine delivers its events, in
   input order, so their sequence — names, cats, phases and args — is the
   same at DOMAINS=1 and DOMAINS=4; only lanes and timestamps differ.
   They carry no wall-clock args (their time is in ts/dur), so nothing
   is stripped.  The worker-lane detail (RPC dispatches, EVM frames) is
   recorded live on each worker, so it arrives interleaved — but its
   content must not depend on the worker count: same multiset. *)
let engine_cats = [ "run"; "batch"; "item"; "stage" ]

let test_span_tree_across_domains () =
  let events domains =
    let trace = Obs.Trace.create () in
    let _ = instrumented_run ~trace ~domains () in
    trace_events trace
  in
  let e1 = events 1 and e4 = events 4 in
  let shape ev =
    let args =
      match jget "args" ev with Some a -> Json.to_string a | None -> ""
    in
    Printf.sprintf "%s|%s|%s|%s" (jstr "name" ev) (jstr "cat" ev)
      (jstr "ph" ev) args
  in
  let is_engine ev = List.mem (jstr "cat" ev) engine_cats in
  (* Engine spans: same sequence, in order. *)
  let engine evs = List.filter is_engine evs |> List.map shape in
  check_i "engine span sequences have equal length" (List.length (engine e1))
    (List.length (engine e4));
  List.iter2 (check_s "engine span sequence identical") (engine e1) (engine e4);
  (* Worker lanes: same multiset, lanes aside. *)
  let lanes evs =
    List.filter (fun ev -> not (is_engine ev)) evs
    |> List.map shape |> List.sort compare
  in
  let l1 = lanes e1 and l4 = lanes e4 in
  check_b "worker-lane detail present" true (l1 <> []);
  check_i "worker lanes have equal volume" (List.length l1) (List.length l4);
  List.iter2 (check_s "worker-lane multiset identical") l1 l4

(* Every span of a trace sits on the collector's clock: each event lies
   inside the run span, stage < item < batch < run nests on the real
   stamps, and a stage, RPC dispatch or EVM frame lies inside an item on
   its own worker's lane.  The tolerance is one microsecond: absolute
   Unix-time stamps near 1.8e15 us round to a quarter of one. *)
let test_trace_one_time_base () =
  List.iter
    (fun domains ->
      let trace = Obs.Trace.create () in
      let _ = instrumented_run ~fault_rate:0.05 ~trace ~domains () in
      let events = trace_events trace in
      let label what = Printf.sprintf "DOMAINS=%d: %s" domains what in
      let x cat =
        List.filter (fun ev -> jstr "ph" ev = "X" && jstr "cat" ev = cat) events
      in
      let start ev = jnum "ts" ev in
      let stop ev = start ev +. jnum "dur" ev in
      let inside ~outer ev =
        start outer -. 1.0 <= start ev && stop ev <= stop outer +. 1.0
      in
      let lane ev = jnum "tid" ev in
      let run =
        match x "run" with
        | [ r ] -> r
        | _ -> Alcotest.fail (label "expected exactly one run span")
      in
      let items = x "item" and batches = x "batch" in
      check_b (label "only complete spans") true
        (List.for_all (fun ev -> jstr "ph" ev = "X") events);
      List.iter
        (fun ev ->
          check_b (label "event inside the run") true (inside ~outer:run ev))
        events;
      List.iter
        (fun i ->
          check_b (label "item inside a batch") true
            (List.exists (fun b -> inside ~outer:b i) batches))
        items;
      (* A pair stage's subject is "proxy->logic", under the proxy's item. *)
      let of_item i = function
        | None -> true
        | Some subject ->
            let name = jstr "name" i in
            subject = name || String.starts_with ~prefix:(name ^ "->") subject
      in
      let in_item_on_lane ?subject ev =
        List.exists
          (fun i -> lane i = lane ev && inside ~outer:i ev && of_item i subject)
          items
      in
      List.iter
        (fun s ->
          let subject =
            match jget "args" s with
            | Some a -> jstr "subject" a
            | None -> Alcotest.fail (label "stage span without args")
          in
          check_b (label "stage inside its item, on its lane") true
            (in_item_on_lane ~subject s))
        (x "stage");
      List.iter
        (fun ev ->
          check_b (label "RPC/EVM detail inside an item on its lane") true
            (in_item_on_lane ev))
        (x "rpc" @ x "evm"))
    [ 1; 4 ]

(* On an auto-stepping virtual clock a traced run is a pure function of
   its inputs: two runs write the same bytes, and a collector streaming
   to a file writes exactly what an in-memory one writes. *)
let test_trace_deterministic () =
  let clock () = Obs.Clock.virtual_ ~start:1.0 ~auto_step:1e-6 () in
  let traced trace =
    ignore (instrumented_run ~fault_rate:0.05 ~trace ~domains:1 ())
  in
  let in_memory () =
    let trace = Obs.Trace.create ~clock:(clock ()) () in
    traced trace;
    trace_text trace
  in
  let a = in_memory () and b = in_memory () in
  check_b "trace is non-trivial" true (List.length (parse_trace a) > 100);
  check_s "two traced runs write identical bytes" a b;
  let path = Filename.temp_file "proxion_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let trace =
        match Obs.Trace.to_file ~clock:(clock ()) path with
        | Ok tr -> tr
        | Error e -> Alcotest.fail e
      in
      traced trace;
      Obs.Trace.close trace;
      check_s "the streamed file holds the same bytes" a
        (In_channel.with_open_text path In_channel.input_all))

(* A file collector writes each event as it arrives and keeps none: a
   finished live span is on disk before the file is closed, only a held
   trace is retained, and closing completes the document. *)
let test_trace_file_streams () =
  let path = Filename.temp_file "proxion_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let tr =
        let clock = Obs.Clock.virtual_ ~auto_step:1.0 () in
        match Obs.Trace.to_file ~clock path with
        | Ok tr -> tr
        | Error e -> Alcotest.fail e
      in
      let read () = In_channel.with_open_text path In_channel.input_all in
      let g = Obs.Trace.gen ~seed:3 in
      let kept = Obs.Trace.next_ctx g and other = Obs.Trace.next_ctx g in
      Obs.Trace.hold tr kept;
      let sp = Obs.Trace.start_span ~ctx:kept tr "advance" in
      Obs.Trace.complete tr ~name:"stage" ~ts:0.0 ~dur:1.0
        ~args:(Obs.Trace.ctx_args other);
      Obs.Trace.finish_span sp;
      let hex c = Obs.Trace.id_to_hex c.Obs.Trace.trace_id in
      check_b "a finished span is on disk before close" true
        (contains ~needle:(hex kept) (read ()));
      (match Obs.Trace.release tr kept with
      | Json.List [ ev ] ->
          check_s "only the held trace is retained" "advance" (jstr "name" ev)
      | _ -> Alcotest.fail "expected the one held span");
      (match Obs.Trace.release tr kept with
      | Json.List [] -> ()
      | _ -> Alcotest.fail "a released trace is still held");
      (match Obs.Trace.write tr stdout with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.fail "write accepted a streaming collector");
      Obs.Trace.close tr;
      Obs.Trace.close tr;
      Obs.Trace.complete tr ~name:"late" ~ts:0.0 ~dur:0.0;
      check_i "events recorded" 3 (Obs.Trace.count tr);
      let events = parse_trace (read ()) in
      check_i "the closed file holds the spans written before close" 2
        (List.length events))

(* --- exemplars ---------------------------------------------------------- *)

let test_exemplars () =
  let m = Obs.Metrics.create () in
  let h =
    Obs.Metrics.histogram m ~help:"Latency" ~buckets:[ 0.1; 1.0 ] "ex_seconds"
  in
  let id c = String.make 16 c in
  check_b "no exemplar before any observation" true
    (Obs.Metrics.exemplar m h = None);
  Obs.Metrics.observe ~exemplar:(id 'a') m h 0.2;
  check_b "first observation wins the empty slot" true
    (Obs.Metrics.exemplar m h = Some (id 'a', 0.2));
  Obs.Metrics.observe ~exemplar:(id 'b') m h 0.2;
  check_b "ties keep the earliest id" true
    (Obs.Metrics.exemplar m h = Some (id 'a', 0.2));
  Obs.Metrics.observe ~exemplar:(id 'c') m h 0.9;
  check_b "a strictly greater value replaces" true
    (Obs.Metrics.exemplar m h = Some (id 'c', 0.9));
  Obs.Metrics.observe m h 5.0;
  check_b "exemplar-less observations leave the slot" true
    (Obs.Metrics.exemplar m h = Some (id 'c', 0.9));
  Obs.Metrics.observe ~exemplar:(id 'd') m h 2.0;
  (* The exposition carries the EXEMPLAR comment and still lints. *)
  let text = Obs.Metrics.to_prometheus m in
  check_b "EXEMPLAR comment present" true
    (contains ~needle:("# EXEMPLAR ex_seconds " ^ id 'd') text);
  (match Obs.Metrics.lint text with
  | Ok () -> ()
  | Error es ->
      Alcotest.fail ("exemplar exposition rejected: " ^ String.concat "; " es));
  (* ...and the linter rejects broken exemplar lines. *)
  let expect_bad what line =
    match Obs.Metrics.lint (text ^ line ^ "\n") with
    | Error _ -> ()
    | Ok () -> Alcotest.fail (what ^ ": lint accepted a broken exemplar")
  in
  expect_bad "short id" "# EXEMPLAR ex_seconds abc 2";
  expect_bad "uppercase id" ("# EXEMPLAR ex_seconds " ^ String.make 16 'A' ^ " 2");
  expect_bad "undeclared family" ("# EXEMPLAR nope_seconds " ^ id 'f' ^ " 2");
  expect_bad "unparsable value" ("# EXEMPLAR ex_seconds " ^ id 'f' ^ " zz");
  (* The JSON snapshot carries the exemplar object. *)
  match Obs.Metrics.to_json m with
  | Json.Obj _ as js ->
      check_b "JSON snapshot names the exemplar id" true
        (contains ~needle:(id 'd') (Json.to_string js))
  | _ -> Alcotest.fail "metrics JSON not an object"

(* --- flight recorder ---------------------------------------------------- *)

let test_flight_ring () =
  (match Obs.Flight.create ~capacity:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "capacity 0 accepted");
  let run () =
    let clock = Obs.Clock.virtual_ ~start:5.0 ~auto_step:0.5 () in
    let f = Obs.Flight.create ~clock ~capacity:4 () in
    for i = 1 to 6 do
      Obs.Flight.record f "tick" ~fields:[ ("i", Json.Int i) ]
    done;
    f
  in
  let f = run () in
  check_i "capacity" 4 (Obs.Flight.capacity f);
  check_i "recorded counts evictions" 6 (Obs.Flight.recorded f);
  let js = Json.to_string (Obs.Flight.to_json f) in
  (match Json.parse js with
  | Error e -> Alcotest.fail ("flight JSON does not parse: " ^ e)
  | Ok parsed -> (
      checkf "capacity field" 4.0 (jnum "capacity" parsed);
      checkf "recorded field" 6.0 (jnum "recorded" parsed);
      match jget "events" parsed with
      | Some (Json.List evs) ->
          check_i "ring holds capacity events" 4 (List.length evs);
          let payloads =
            List.map
              (fun ev ->
                match jget "fields" ev with
                | Some fl -> int_of_float (jnum "i" fl)
                | None -> -1)
              evs
          in
          check_b "oldest evicted, order kept" true (payloads = [ 3; 4; 5; 6 ]);
          (* ts is read under the ring's lock: with the auto-stepping
             clock the retained events carry consecutive stamps. *)
          let ts = List.map (jnum "ts") evs in
          check_b "timestamps strictly increase" true
            (List.for_all2 ( < ) ts (List.tl ts @ [ infinity ]))
      | _ -> Alcotest.fail "events list missing"));
  (* limit keeps only the newest events. *)
  (match Obs.Flight.to_json ~limit:2 f with
  | Json.Obj kvs -> (
      match List.assoc_opt "events" kvs with
      | Some (Json.List evs) ->
          check_i "limit trims to the newest" 2 (List.length evs);
          let last =
            match List.rev evs with
            | ev :: _ -> int_of_float (jnum "i" (Option.get (jget "fields" ev)))
            | [] -> -1
          in
          check_i "newest survives the limit" 6 last
      | _ -> Alcotest.fail "limited events missing")
  | _ -> Alcotest.fail "flight JSON not an object");
  (* Deterministic under the virtual clock: a replay is byte-identical. *)
  check_s "replayed ring byte-identical" js
    (Json.to_string (Obs.Flight.to_json (run ())))

(* --- structured log sink ----------------------------------------------- *)

let with_log_lines ?(level = Obs.Log.Info) ?(json = false) f =
  let path = Filename.temp_file "proxion_obs" ".log" in
  let oc = open_out path in
  let clock = Obs.Clock.virtual_ ~auto_step:0.5 () in
  let log = Obs.Log.create ~clock ~level ~json oc in
  f log;
  close_out oc;
  let lines =
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  Sys.remove path;
  lines

let test_log_jsonl () =
  let lines =
    with_log_lines ~level:Obs.Log.Warn ~json:true (fun log ->
        check_b "debug disabled at warn" false (Obs.Log.enabled log Obs.Log.Debug);
        check_b "error enabled at warn" true (Obs.Log.enabled log Obs.Log.Error);
        Obs.Log.log log Obs.Log.Debug "dropped";
        Obs.Log.log log Obs.Log.Info "dropped too";
        Obs.Log.log log ~component:"engine" ~subject:"0xabc"
          ~fields:[ ("attempt", Json.Int 3) ]
          Obs.Log.Warn "slow item";
        Obs.Log.log log Obs.Log.Error "broken")
  in
  check_i "level filter keeps two of four records" 2 (List.length lines);
  let parsed =
    List.map
      (fun line ->
        match Json.parse line with
        | Ok v -> v
        | Error e -> Alcotest.fail (Printf.sprintf "bad JSONL %S: %s" line e))
      lines
  in
  (match parsed with
  | [ warn; err ] ->
      check_s "first record level" "warn" (jstr "level" warn);
      check_s "component field" "engine" (jstr "component" warn);
      check_s "subject field" "0xabc" (jstr "subject" warn);
      check_s "message field" "slow item" (jstr "msg" warn);
      (match jget "fields" warn with
      | Some (Json.Obj [ ("attempt", Json.Int 3) ]) -> ()
      | _ -> Alcotest.fail "fields object mangled");
      checkf "virtual timestamp of the first emitted record" 0.0
        (jnum "ts" warn);
      check_s "second record level" "error" (jstr "level" err);
      checkf "auto-stepped timestamp" 0.5 (jnum "ts" err)
  | _ -> Alcotest.fail "expected two parsed records");
  (* Text mode: aligned single lines carrying the same information. *)
  let text_lines =
    with_log_lines (fun log ->
        Obs.Log.log log ~component:"engine" ~subject:"0xabc" Obs.Log.Info "hello";
        Obs.Log.log log Obs.Log.Debug "dropped")
  in
  check_i "text mode: one line" 1 (List.length text_lines);
  let line = List.hd text_lines in
  check_b "text line carries component" true (contains ~needle:"[engine]" line);
  check_b "text line carries subject" true (contains ~needle:"subject=0xabc" line);
  check_b "text line carries message" true (contains ~needle:"hello" line)

(* Records dropped below the sink's level are tallied, and the tally is
   flushed as a visible record before a mid-run level change moves the
   boundary — no silent loss across the transition. *)
let test_suppression_flush () =
  let lines =
    with_log_lines ~level:Obs.Log.Warn ~json:true (fun log ->
        Obs.Log.log log Obs.Log.Debug "dropped";
        Obs.Log.log log Obs.Log.Info "dropped too";
        check_b "guard reports debug disabled" false
          (Obs.Log.enabled log Obs.Log.Debug);
        Obs.Log.note_suppressed log;
        check_i "filtered calls and explicit notes both count" 3
          (Obs.Log.suppressed log);
        Obs.Log.set_level log Obs.Log.Debug;
        check_i "flush resets the tally" 0 (Obs.Log.suppressed log);
        Obs.Log.set_level log Obs.Log.Debug;
        (* no-op: unchanged level *)
        Obs.Log.log log Obs.Log.Debug "now visible")
  in
  check_i "flush record plus the now-visible record" 2 (List.length lines);
  match List.map (fun l -> Result.get_ok (Json.parse l)) lines with
  | [ flush; visible ] ->
      check_s "flush message" "suppressed records" (jstr "msg" flush);
      check_s "flush component" "log" (jstr "component" flush);
      (match jget "fields" flush with
      | Some f ->
          checkf "suppressed count" 3.0 (jnum "suppressed" f);
          check_s "old threshold recorded" "warn" (jstr "below" f)
      | None -> Alcotest.fail "flush record carries no fields");
      check_s "debug records flow after the change" "now visible"
        (jstr "msg" visible)
  | _ -> Alcotest.fail "expected two parsed records"

let test_level_parsing () =
  List.iter
    (fun (s, expect) ->
      match Obs.Log.level_of_string s with
      | Ok l -> check_s ("parse " ^ s) expect (Obs.Log.level_to_string l)
      | Error e -> Alcotest.fail e)
    [
      ("debug", "debug");
      ("Info", "info");
      ("WARNING", "warn");
      ("warn", "warn");
      ("error", "error");
    ];
  match Obs.Log.level_of_string "loud" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bogus level accepted"

let suite =
  [
    Alcotest.test_case "clock: real and virtual" `Quick test_clock;
    Alcotest.test_case "metrics: exposition is valid and lints" `Quick
      test_exposition_lints;
    Alcotest.test_case "metrics: lint catches broken expositions" `Quick
      test_lint_catches_breakage;
    Alcotest.test_case "metrics: histogram rendering is order-independent"
      `Quick test_bucket_determinism;
    Alcotest.test_case "metrics: percentile interpolation" `Quick
      test_summarize;
    Alcotest.test_case "instrumented chaos snapshot identical across domains"
      `Slow test_snapshot_identical_across_domains;
    Alcotest.test_case "trace: JSON round-trip and span nesting" `Slow
      test_trace_roundtrip_and_nesting;
    Alcotest.test_case "trace: span contexts and hex ids" `Quick
      test_trace_ctx_ids;
    Alcotest.test_case "trace: live span trees join on trace_id" `Quick
      test_live_span_tree;
    Alcotest.test_case "trace: span tree identical across domains" `Slow
      test_span_tree_across_domains;
    Alcotest.test_case "metrics: max-latency exemplars" `Quick test_exemplars;
    Alcotest.test_case "flight: bounded ring is deterministic" `Quick
      test_flight_ring;
    Alcotest.test_case "log: JSONL well-formedness and level filtering" `Quick
      test_log_jsonl;
    Alcotest.test_case "log: suppression tally flushes on level change" `Quick
      test_suppression_flush;
    Alcotest.test_case "log: level parsing" `Quick test_level_parsing;
    Alcotest.test_case "trace: one time base at DOMAINS 1 and 4" `Slow
      test_trace_one_time_base;
    Alcotest.test_case "trace: deterministic on a virtual clock" `Slow
      test_trace_deterministic;
    Alcotest.test_case "trace: file collector streams and keeps nothing" `Quick
      test_trace_file_streams;
  ]
