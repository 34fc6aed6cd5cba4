(* The chaos harness: the resilience layer under seeded fault injection.

   Unit level — the retry policy, fault plans, the circuit breaker and
   the transport (including partial batch failure and budgets) are each
   pinned to their deterministic contracts.  Analyzer level — a full
   landscape run under an injected fault plan must come out byte-identical
   to the fault-free run once every transient is retried to success (at
   any worker count), and a plan harsh enough to exhaust the retry budget
   must degrade into classified dead letters that a later requeue under a
   healthy transport completes to the fault-free figures.

   Knobs mirror the CI matrix: CHAOS_SEED selects the fault plan seed
   (default 1) and DOMAINS the parallel worker count (default 4). *)

module Generate = Dataset.Generate
module Transport = Resilience.Transport
module Fault_plan = Resilience.Fault_plan
module Retry = Resilience.Retry
module Breaker = Resilience.Breaker

let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)
let check_s = Alcotest.(check string)
let check_sl = Alcotest.(check (list string))

let chaos_seed =
  match Sys.getenv_opt "CHAOS_SEED" with
  | Some s -> ( try int_of_string (String.trim s) with _ -> 1)
  | None -> 1

let domains_under_test =
  match Sys.getenv_opt "DOMAINS" with
  | Some s -> ( try max 1 (int_of_string (String.trim s)) with _ -> 4)
  | None -> 4

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* {1 Retry policy} *)

let test_retry_determinism () =
  let p = Retry.default in
  check_b "equal inputs, equal delay" true
    (Retry.delay p ~seed:7 ~attempt:1 = Retry.delay p ~seed:7 ~attempt:1);
  check_b "seed changes the jitter" true
    (Retry.delay p ~seed:7 ~attempt:1 <> Retry.delay p ~seed:8 ~attempt:1);
  for attempt = 1 to 30 do
    let d = Retry.delay p ~seed:chaos_seed ~attempt in
    check_b "delay never negative" true (d >= 0.0);
    check_b "delay capped (with jitter headroom)" true
      (d <= p.Retry.max_delay *. (1.0 +. p.Retry.jitter))
  done;
  check_b "backoff grows past the jitter band" true
    (Retry.delay p ~seed:3 ~attempt:4 > Retry.delay p ~seed:3 ~attempt:1)

(* {1 Fault plans} *)

let decisions spec ~salt n =
  let plan = Fault_plan.instantiate ~salt spec in
  let ds = List.init n (fun _ -> Fault_plan.next plan) in
  check_i "stream position advances" n (Fault_plan.calls_decided plan);
  ds

let test_fault_plan_determinism () =
  let spec = Fault_plan.spec ~seed:chaos_seed ~fault_rate:0.4 ~mean_latency:0.01 () in
  let fingerprint d =
    Printf.sprintf "%.9f %s" d.Fault_plan.d_latency
      (match d.Fault_plan.d_fault with
      | None -> "ok"
      | Some f -> f.Fault_plan.f_detail)
  in
  check_sl "same spec + salt: identical stream"
    (List.map fingerprint (decisions spec ~salt:11 40))
    (List.map fingerprint (decisions spec ~salt:11 40));
  check_b "different salts: different streams" true
    (List.map fingerprint (decisions spec ~salt:11 40)
    <> List.map fingerprint (decisions spec ~salt:12 40));
  List.iter
    (fun d ->
      check_b "latency drawn in [0.5x, 1.5x]" true
        (d.Fault_plan.d_latency >= 0.005 && d.Fault_plan.d_latency <= 0.015))
    (decisions spec ~salt:11 40);
  check_b "the pass-through plan injects nothing" true
    (List.for_all
       (fun d -> d.Fault_plan.d_fault = None && d.Fault_plan.d_latency = 0.0)
       (decisions Fault_plan.none ~salt:11 40))

let test_fault_plan_drop_window () =
  let spec = Fault_plan.spec ~seed:chaos_seed ~drop_windows:[ (2, 3) ] () in
  let faulty =
    List.map
      (fun d -> d.Fault_plan.d_fault <> None)
      (decisions spec ~salt:0 6)
  in
  Alcotest.(check (list bool))
    "exactly call indices 2..4 dropped"
    [ false; false; true; true; true; false ]
    faulty

(* {1 Circuit breaker} *)

let test_breaker_transitions () =
  let clock = Obs.Clock.virtual_ () in
  let b =
    Breaker.create
      ~config:(Breaker.config ~failure_threshold:3 ~cooldown:2.0 ())
      ~clock ~endpoint:"archive" ()
  in
  let seen = ref [] in
  Breaker.on_transition b (fun tr ->
      seen :=
        (match tr with
        | Breaker.Opened { failures } -> Printf.sprintf "opened %d" failures
        | Breaker.Probing -> "probing"
        | Breaker.Recovered -> "recovered")
        :: !seen);
  check_s "starts closed" "closed" (Breaker.state_name (Breaker.state b));
  Breaker.record_failure b;
  Breaker.record_failure b;
  check_s "below threshold stays closed" "closed"
    (Breaker.state_name (Breaker.state b));
  Breaker.record_failure b;
  check_s "threshold trips the circuit" "open"
    (Breaker.state_name (Breaker.state b));
  let before = Obs.Clock.now clock in
  Breaker.await_ready b;
  check_b "cooldown elapsed on the virtual clock" true
    (Obs.Clock.now clock >= before +. 2.0);
  check_s "half-open admits a probe" "half-open"
    (Breaker.state_name (Breaker.state b));
  Breaker.record_failure b;
  check_s "failed probe re-opens" "open" (Breaker.state_name (Breaker.state b));
  Breaker.await_ready b;
  Breaker.record_success b;
  check_s "successful probe recovers" "closed"
    (Breaker.state_name (Breaker.state b));
  check_i "two trips counted" 2 (Breaker.open_count b);
  (* The failure streak is cumulative until a success clears it: the
     failed probe re-opens reporting the whole streak (4), not 1. *)
  check_sl "full transition history"
    [ "opened 3"; "probing"; "opened 4"; "probing"; "recovered" ]
    (List.rev !seen)

(* {1 Transport} *)

let rigged_chain () =
  let chain = Chain.create () in
  let a = Chain.install_contract chain ~runtime:"\x00" () in
  for slot = 0 to 7 do
    Chain.set_storage_direct chain a (U256.of_int slot)
      (U256.of_int (100 + slot))
  done;
  (chain, a)

let storage_req a slot =
  ("eth_getStorageAt", [ Evm.Address.to_hex a; Printf.sprintf "0x%x" slot; "latest" ])

let wire (meth, params) = Chain_rpc.request ~meth ~params

let test_transport_retries_to_success () =
  let chain, a = rigged_chain () in
  (* Deterministic plan: the first two attempts hit a drop window, the
     third dispatches. *)
  let cfg =
    Transport.config
      ~plan:(Fault_plan.spec ~seed:chaos_seed ~drop_windows:[ (0, 2) ] ())
      ()
  in
  let events = ref [] in
  let t = Transport.create ~config:cfg ~on_event:(fun e -> events := e :: !events) ~chain () in
  Chain.reset_api_call_count chain;
  let meth, params = storage_req a 0 in
  let direct = Chain_rpc.call chain ~meth ~params in
  Chain.reset_api_call_count chain;
  check_b "retried call returns the node's answer" true
    (Transport.call t (Chain_rpc.request ~meth ~params) = direct);
  (* The accounting identity: two injected faults consumed zero API
     calls; the one dispatch consumed exactly one. *)
  check_i "injected faults never reach the node" 1 (Chain.api_call_count chain);
  let s = Transport.stats t in
  check_i "one dispatch" 1 s.Transport.dispatched;
  check_i "two faults observed" 2 s.Transport.faults_seen;
  check_i "two backoffs taken" 2 s.Transport.retries;
  check_i "nothing gave up" 0 s.Transport.gave_up;
  check_i "three attempts consumed" 3 (Transport.last_attempts t);
  check_b "backoff elapsed on the virtual clock only" true
    (s.Transport.virtual_elapsed > 0.0);
  let retries =
    List.rev
      (List.filter_map
         (function
           | Transport.Retry { attempt; delay; reason } ->
               check_b "retry delay positive" true (delay > 0.0);
               check_b "retry reason names the fault" true
                 (contains ~needle:"connection dropped" reason);
               Some attempt
           | _ -> None)
         !events)
  in
  Alcotest.(check (list int)) "retry events in attempt order" [ 1; 2 ] retries

let test_transport_gives_up () =
  let chain, a = rigged_chain () in
  let cfg =
    Transport.config
      ~plan:(Fault_plan.spec ~seed:chaos_seed ~drop_windows:[ (0, 100) ] ())
      ~policy:(Retry.policy ~max_attempts:3 ())
      ()
  in
  let t = Transport.create ~config:cfg ~chain () in
  let meth, params = storage_req a 0 in
  (match Transport.call t (Chain_rpc.request ~meth ~params) with
  | Error (Chain_rpc.Transient _) -> ()
  | _ -> Alcotest.fail "expected an exhausted transient");
  let s = Transport.stats t in
  check_i "retry budget exhausted once" 1 s.Transport.gave_up;
  check_i "no dispatch escaped the drop window" 0 s.Transport.dispatched;
  check_i "every attempt consumed" 3 (Transport.last_attempts t)

let test_transport_breaker_cycle () =
  let chain, a = rigged_chain () in
  let cfg =
    Transport.config
      ~plan:(Fault_plan.spec ~seed:chaos_seed ~drop_windows:[ (0, 4) ] ())
      ~policy:(Retry.policy ~max_attempts:6 ())
      ~breaker:(Breaker.config ~failure_threshold:2 ~cooldown:1.0 ())
      ()
  in
  let opened = ref 0 and closed = ref 0 in
  let t =
    Transport.create ~config:cfg
      ~on_event:(function
        | Transport.Circuit_opened { endpoint; failures } ->
            check_s "opened on the archive endpoint" "archive" endpoint;
            check_b "opened with a positive streak" true (failures > 0);
            incr opened
        | Transport.Circuit_closed { endpoint } ->
            check_s "closed on the archive endpoint" "archive" endpoint;
            incr closed
        | Transport.Retry _ | Transport.Dispatched _ | Transport.Hedged _
        | Transport.Quorum_disagreement _ ->
            ())
      ~chain ()
  in
  let meth, params = storage_req a 0 in
  check_b "call eventually lands past the window" true
    (Result.is_ok (Transport.call t (Chain_rpc.request ~meth ~params)));
  (* Window (0,4) fails attempts 0..3: streak of 2 trips, then two
     half-open probes fail and re-trip, then attempt 4 recovers. *)
  check_i "circuit tripped three times" 3 !opened;
  check_i "recovery observed" 1 !closed;
  check_i "stats agree with events" 3 (Transport.stats t).Transport.breaker_opens

let test_batch_partial_failure_recovers () =
  let chain, a = rigged_chain () in
  let requests = List.init 8 (storage_req a) in
  let direct =
    List.map (fun (meth, params) -> Chain_rpc.call chain ~meth ~params) requests
  in
  let cfg =
    Transport.config ~plan:(Fault_plan.spec ~seed:chaos_seed ~fault_rate:0.3 ()) ()
  in
  let t = Transport.create ~config:cfg ~chain () in
  check_b "moderate faults + full retry budget: batch equals direct calls" true
    (Transport.call_batch t (List.map wire requests) = direct);
  check_b "the run did hit injected faults" true
    ((Transport.stats t).Transport.faults_seen > 0)

let test_batch_partial_failure_order () =
  let chain, a = rigged_chain () in
  let requests = List.init 8 (storage_req a) in
  let direct =
    List.map (fun (meth, params) -> Chain_rpc.call chain ~meth ~params) requests
  in
  (* No retries at all: whatever faults the plan deals stay as in-place
     [Transient] errors, and the served entries keep their slots. *)
  let cfg =
    Transport.config
      ~plan:(Fault_plan.spec ~seed:5 ~fault_rate:0.5 ())
      ~policy:(Retry.policy ~max_attempts:1 ())
      ()
  in
  let t = Transport.create ~config:cfg ~chain () in
  let responses = Transport.call_batch t (List.map wire requests) in
  check_i "response list keeps request arity" (List.length requests)
    (List.length responses);
  let oks = ref 0 and errs = ref 0 in
  List.iteri
    (fun i r ->
      match r with
      | Ok _ ->
          incr oks;
          check_b
            (Printf.sprintf "entry %d matches the direct response" i)
            true
            (r = List.nth direct i)
      | Error (Chain_rpc.Transient _) -> incr errs
      | Error e ->
          Alcotest.failf "entry %d: unexpected permanent error %s" i
            (Chain_rpc.error_to_string e))
    responses;
  check_b "some entries served" true (!oks > 0);
  check_b "some entries failed in place" true (!errs > 0);
  check_i "exhausted entries counted as give-ups" !errs
    (Transport.stats t).Transport.gave_up

let test_permanent_errors_not_retried () =
  let chain, a = rigged_chain () in
  let t = Transport.create ~chain () in
  (match
     Transport.call t
       (Chain_rpc.request ~meth:"eth_getCode"
          ~params:[ Evm.Address.to_hex a; "0x0" ])
   with
  | Error (Chain_rpc.Unsupported_height m) ->
      check_s "unsupported-height names the method" "eth_getCode" m
  | _ -> Alcotest.fail "expected Unsupported_height");
  check_i "no retry spent on a permanent error" 0 (Transport.retries t);
  check_i "one attempt only" 1 (Transport.last_attempts t)

let test_call_budget_exhaustion () =
  let chain, a = rigged_chain () in
  let t = Transport.create ~config:(Transport.config ~call_budget:2 ()) ~chain () in
  let meth, params = storage_req a 0 in
  check_b "budgeted calls succeed" true
    (Result.is_ok (Transport.call t (Chain_rpc.request ~meth ~params))
    && Result.is_ok (Transport.call t (Chain_rpc.request ~meth ~params)));
  (match Transport.call t (Chain_rpc.request ~meth ~params) with
  | exception Transport.Budget_exhausted { scope; budget; spent } ->
      check_s "api-call scope" "api-calls" scope;
      check_i "declared budget" 2 budget;
      check_i "spent at the limit" 2 spent
  | _ -> Alcotest.fail "expected Budget_exhausted");
  let t' = Transport.create ~config:(Transport.config ~step_budget:100 ()) ~chain () in
  Transport.check_step_budget t' ~steps:100;
  match Transport.check_step_budget t' ~steps:101 with
  | exception Transport.Budget_exhausted { scope; _ } ->
      check_s "evm-step scope" "evm-steps" scope
  | () -> Alcotest.fail "expected step-budget exhaustion"

(* {1 Typed reads equal the string facade} *)

(* Two contracts whose slots change every few blocks, and an address that
   holds nothing, so reads at different heights answer differently. *)
let history_chain =
  lazy
    (let chain = Chain.create () in
     let a = Chain.install_contract chain ~runtime:"\x00" () in
     let b = Chain.install_contract chain ~runtime:"\x01" () in
     for step = 1 to 6 do
       Chain.advance_blocks chain 2;
       Chain.set_storage_direct chain a
         (U256.of_int (step mod 3))
         (U256.of_int ((step * 0x10001) + 7));
       Chain.set_storage_direct chain b
         (U256.of_int ((step + 1) mod 3))
         (U256.of_int (step * 0xabcdef))
     done;
     (chain, [| a; b; Evm.Address.of_hex "0x00000000000000000000000000000000000000ee" |]))

type setting =
  | Direct
  | Faulty of { seed : int; percent : int; window : int }
  | Budgeted of int
  | Failover of int  (* plan seed *)
  | Byzantine_quorum of int  (* plan and corruption seed *)

let config_of = function
  | Direct -> Transport.default_config
  | Faulty { seed; percent; window } ->
      Transport.config
        ~plan:
          (Fault_plan.spec ~seed
             ~fault_rate:(float_of_int percent /. 100.0)
             ~drop_windows:[ (window, 2) ] ())
        ()
  | Budgeted n -> Transport.config ~call_budget:n ()
  | Failover seed ->
      Transport.config
        ~endpoints:
          [
            Transport.endpoint
              ~plan:(Fault_plan.spec ~seed ~fault_rate:0.3 ~mean_latency:0.3 ())
              "primary";
            Transport.endpoint
              ~plan:
                (Fault_plan.spec ~seed:(seed + 1) ~fault_rate:0.2
                   ~mean_latency:0.2 ())
              "secondary";
            Transport.endpoint "tertiary";
          ]
        ~hedge_after:0.25 ()
  | Byzantine_quorum seed ->
      Transport.config
        ~endpoints:
          [
            Transport.endpoint "honest-1";
            Transport.endpoint
              ~plan:(Fault_plan.spec ~seed ~fault_rate:0.2 ())
              "honest-2";
            Transport.endpoint ~byzantine:0.5 ~byz_seed:seed "liar";
          ]
        ~quorum:2 ()

let setting_to_string = function
  | Direct -> "direct"
  | Faulty { seed; percent; window } ->
      Printf.sprintf "faulty seed=%d %d%% window=%d" seed percent window
  | Budgeted n -> Printf.sprintf "budget %d" n
  | Failover seed -> Printf.sprintf "failover+hedge seed=%d" seed
  | Byzantine_quorum seed -> Printf.sprintf "quorum 2/3 byzantine seed=%d" seed

(* Serve [requests] on a fresh view of [chain] through a transport built
   from [config]: in one batch or one call at a time.  Returns the answers
   (or the budget each call ran out of) with everything the transport and
   the node counted. *)
let serve_side chain config ~salt ~batched requests =
  let view = Chain.worker_view chain in
  let events = ref [] in
  let t =
    Transport.create ~config ~salt
      ~on_event:(fun e -> events := e :: !events)
      ~chain:view ()
  in
  let guard f =
    match f () with
    | answers -> Ok answers
    | exception Transport.Budget_exhausted { scope; budget; spent } ->
        Error (scope, budget, spent)
  in
  let answers =
    if batched then [ guard (fun () -> Transport.call_batch t requests) ]
    else List.map (fun r -> guard (fun () -> [ Transport.call t r ])) requests
  in
  ( answers,
    Transport.stats t,
    Transport.endpoint_stats t,
    List.rev !events,
    Chain.api_call_count view,
    Chain.method_call_counts view )

let test_typed_reads_equal_facade () =
  let chain, addrs = Lazy.force history_chain in
  let head = Chain.height chain in
  let exercised = Hashtbl.create 8 in
  let note what cond = if cond then Hashtbl.replace exercised what () in
  let gen =
    let open QCheck.Gen in
    let setting =
      oneof
        [
          return Direct;
          map3
            (fun seed percent window -> Faulty { seed; percent; window })
            small_nat (int_range 5 30) (int_bound 8);
          map (fun n -> Budgeted n) (int_range 1 10);
          map (fun seed -> Failover seed) small_nat;
          map (fun seed -> Byzantine_quorum seed) small_nat;
        ]
    in
    let read =
      triple (int_bound (Array.length addrs - 1)) (int_bound 3) (int_bound (head + 3))
    in
    quad setting (list_size (int_range 1 12) read) bool small_nat
  in
  let print (setting, reads, batched, salt) =
    Printf.sprintf "%s, %s, salt %d, reads %s" (setting_to_string setting)
      (if batched then "batched" else "one by one")
      salt
      (String.concat "; "
         (List.map (fun (a, s, h) -> Printf.sprintf "(%d,%d,%d)" a s h) reads))
  in
  let prop (setting, reads, batched, salt) =
    let config = config_of setting in
    let typed =
      List.map
        (fun (a, s, height) -> Chain_rpc.storage_at addrs.(a) (U256.of_int s) ~height)
        reads
    in
    let wire =
      List.map
        (fun (a, s, h) ->
          Chain_rpc.request ~meth:"eth_getStorageAt"
            ~params:
              [
                Evm.Address.to_hex addrs.(a);
                U256.to_hex (U256.of_int s);
                U256.to_hex (U256.of_int h);
              ])
        reads
    in
    let ta, ts, te, tev, tcalls, tmeths =
      serve_side chain config ~salt ~batched typed
    in
    let wa, ws, we, wev, wcalls, wmeths =
      serve_side chain config ~salt ~batched wire
    in
    let decoded = List.map (Result.map (List.map (Result.map U256.of_hex))) wa in
    let same_answer a b =
      match (a, b) with
      | Ok x, Ok y -> U256.equal x y
      | Error x, Error y -> x = y
      | _ -> false
    in
    let same_call a b =
      match (a, b) with
      | Ok xs, Ok ys -> List.equal same_answer xs ys
      | Error x, Error y -> x = y
      | _ -> false
    in
    note "fault" (ts.Transport.faults_seen > 0);
    note "hedge" (ts.Transport.hedges > 0);
    note "disagreement" (ts.Transport.disagreements > 0);
    note "budget" (List.exists Result.is_error ta);
    note "beyond head" (List.exists (fun (_, _, h) -> h > head) reads);
    List.equal same_call ta decoded
    && ts = ws && te = we && tev = wev && tcalls = wcalls && tmeths = wmeths
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:300
       ~name:"typed reads equal the facade under every transport setting"
       (QCheck.make ~print gen) prop);
  List.iter
    (fun what -> check_b (what ^ " exercised") true (Hashtbl.mem exercised what))
    [ "fault"; "hedge"; "disagreement"; "budget"; "beyond head" ]

(* {1 Generic engine: dead letters across a state hand-over, and requeue} *)

let test_dead_letter_checkpoint_roundtrip () =
  let t =
    Engine.create ~batch_size:4 ~subject:string_of_int
      ~process:(fun _ n ->
        if n = 3 then
          Error
            (Engine.transient ~stage:Engine.Logic_resolve ~attempts:4
               "injected timeout outlived the retry budget")
        else if n = 5 then Error (Engine.permanent "malformed input")
        else Ok (n * 2))
      ()
  in
  Engine.submit t [ 1; 2; 3; 4; 5; 6 ];
  Engine.run t;
  Alcotest.(check (list int)) "survivors in order" [ 2; 4; 8; 12 ] (Engine.results t);
  let restored =
    Engine.create ~batch_size:4 ~state:(Engine.state t) ~subject:string_of_int
      ~process:(fun _ n -> Ok (n * 2))
      ()
  in
  check_b "the hand-over keeps the whole state" true
    (Engine.state restored = Engine.state t);
  (match Engine.skipped restored with
  | [ a; b ] ->
      check_i "transient item restored" 3 a.Engine.sk_item;
      check_s "transient subject" "3" a.Engine.sk_subject;
      check_b "transient class" true (a.Engine.sk_class = Engine.Transient);
      check_b "failing stage survives" true
        (a.Engine.sk_stage = Some Engine.Logic_resolve);
      check_i "attempt count survives" 4 a.Engine.sk_attempts;
      check_b "message survives" true
        (contains ~needle:"injected timeout" a.Engine.sk_message);
      check_i "permanent item restored" 5 b.Engine.sk_item;
      check_b "permanent class" true (b.Engine.sk_class = Engine.Permanent);
      check_b "permanent has no stage" true (b.Engine.sk_stage = None);
      check_i "permanent attempts default" 1 b.Engine.sk_attempts
  | l -> Alcotest.failf "expected 2 dead letters, got %d" (List.length l));
  check_i "default requeue moves only the recoverable entry" 1
    (Engine.requeue restored);
  check_i "requeued entry pending" 1 (Engine.pending restored);
  Engine.run restored;
  Alcotest.(check (list int))
    "requeued item completes after the originals"
    [ 2; 4; 8; 12; 6 ] (Engine.results restored);
  check_i "permanent entry still dead" 1 (List.length (Engine.skipped restored));
  check_i "explicit class requeues the permanent entry" 1
    (Engine.requeue ~classes:[ Engine.Permanent ] restored);
  Engine.run restored;
  check_i "dead-letter list drained" 0 (List.length (Engine.skipped restored));
  Alcotest.(check (list int))
    "every item eventually completed"
    [ 2; 4; 8; 12; 6; 10 ] (Engine.results restored)

(* {1 Full-pipeline chaos} *)

let chaos_config = { Generate.quick_config with Generate.total = 240; seed = 31 }
let report_string r = Report.Json.to_string (Proxion.Serialize.report_to_json r)

let skeleton = function
  | Engine.Stage_finished { stage; subject; _ } ->
      Some (Printf.sprintf "finish %s %s" (Engine.stage_name stage) subject)
  | Engine.Stage_errored { stage; subject; _ } ->
      Some (Printf.sprintf "error %s %s" (Engine.stage_name stage) subject)
  | Engine.Retry_attempted { subject; attempt; _ } ->
      Some (Printf.sprintf "retry %s %d" subject attempt)
  | Engine.Circuit_opened { endpoint; subject; _ } ->
      Some (Printf.sprintf "circuit-opened %s %s" endpoint subject)
  | Engine.Circuit_closed { endpoint; subject; _ } ->
      Some (Printf.sprintf "circuit-closed %s %s" endpoint subject)
  | Engine.Item_skipped { subject; _ } -> Some ("skip " ^ subject)
  | _ -> None

let run_landscape ?(gen = chaos_config) ?(config = Proxion.Analysis.Config.default)
    ?(resilience = Transport.default_config) ~domains () =
  let land_ = Generate.generate gen in
  let config =
    Proxion.Analysis.Config.(config |> with_batch_size 16 |> with_domains domains)
  in
  let t =
    Proxion.Analyzer.create ~config ~resilience ~chain:land_.Generate.chain
      ~source:land_.Generate.source_of ()
  in
  let events = ref [] in
  Proxion.Analyzer.subscribe t (fun ev ->
      match skeleton ev with Some s -> events := s :: !events | None -> ());
  Proxion.Analyzer.submit_all t;
  Proxion.Analyzer.run t;
  (t, List.rev !events)

let transient_plan =
  Transport.config
    ~plan:(Fault_plan.spec ~seed:chaos_seed ~fault_rate:0.08 ~mean_latency:0.002 ())
    ()

(* A fault plan mild enough that the default retry policy always clears
   it: the chaos run's report, checkpoint and dead-letter list must be
   byte-identical to the fault-free run, at any worker count. *)
let checkpoint_state t =
  Report.Json.to_string (Proxion.Analyzer.checkpoint t)

let test_chaos_transient_identity () =
  let reference, _ = run_landscape ~domains:1 () in
  let ref_report = report_string (Proxion.Analyzer.report reference) in
  let ref_ck = checkpoint_state reference in
  let faulty_seq, ev_seq = run_landscape ~resilience:transient_plan ~domains:1 () in
  let faulty_par, ev_par =
    run_landscape ~resilience:transient_plan ~domains:domains_under_test ()
  in
  let retry_count =
    List.length
      (List.filter (fun s -> String.length s >= 5 && String.sub s 0 5 = "retry") ev_seq)
  in
  check_b "the plan injected faults that were retried" true (retry_count > 0);
  List.iter
    (fun (t, label) ->
      check_i (label ^ ": no dead letters") 0
        (List.length (Proxion.Analyzer.skipped t));
      check_s (label ^ ": report byte-identical to fault-free") ref_report
        (report_string (Proxion.Analyzer.report t));
      check_s (label ^ ": checkpoint state byte-identical to fault-free")
        ref_ck (checkpoint_state t))
    [ (faulty_seq, "sequential chaos"); (faulty_par, "parallel chaos") ];
  check_sl
    (Printf.sprintf "chaos event order identical at %d domains"
       domains_under_test)
    ev_seq ev_par

(* A plan harsh enough to exhaust a 2-attempt retry budget: RPC-dependent
   contracts dead-letter as [Transient] in the resolve stage, everything
   else completes, and a checkpoint restored under a healthy transport
   requeues the casualties to exactly the fault-free figures.  Dedup is
   off: a casualty may have seeded the detection cache before dying, and
   this test compares against a run where it never existed. *)
let test_chaos_degrade_and_requeue () =
  let no_dedup = Proxion.Analysis.Config.(default |> with_dedup false) in
  let reference, _ = run_landscape ~config:no_dedup ~domains:1 () in
  let ref_report = Proxion.Analyzer.report reference in
  let harsh =
    Transport.config
      ~plan:(Fault_plan.spec ~seed:chaos_seed ~fault_rate:0.45 ())
      ~policy:(Retry.policy ~max_attempts:2 ())
      ()
  in
  let degraded, _ = run_landscape ~config:no_dedup ~resilience:harsh ~domains:1 () in
  let dead = Proxion.Analyzer.skipped degraded in
  check_b "the harsh plan produced dead letters" true (dead <> []);
  List.iter
    (fun r ->
      check_b "classified transient" true (r.Engine.sk_class = Engine.Transient);
      check_b "attributed to the RPC-dependent stage" true
        (r.Engine.sk_stage = Some Engine.Logic_resolve);
      check_b "attempts recorded" true (r.Engine.sk_attempts >= 1))
    dead;
  (* "Next session": restore the checkpoint against a healthy transport
     and send the dead letters around again. *)
  let ck = Proxion.Analyzer.checkpoint degraded in
  let land_ = Generate.generate chaos_config in
  let resumed =
    match
      Proxion.Analyzer.restore ~chain:land_.Generate.chain
        ~source:land_.Generate.source_of ck
    with
    | Ok t -> t
    | Error e -> Alcotest.failf "restore failed: %s" e
  in
  check_b "class, stage, attempts and message survive the checkpoint" true
    (Proxion.Analyzer.skipped resumed = dead);
  check_i "every dead letter requeued" (List.length dead)
    (Proxion.Analyzer.requeue resumed);
  Proxion.Analyzer.run resumed;
  check_i "no dead letters after the healthy retry" 0
    (List.length (Proxion.Analyzer.skipped resumed));
  let final = Proxion.Analyzer.report resumed in
  check_s "stats recover to the fault-free figures"
    (Report.Json.to_string (Proxion.Serialize.stats_to_json ref_report.Proxion.Analysis.stats))
    (Report.Json.to_string (Proxion.Serialize.stats_to_json final.Proxion.Analysis.stats));
  (* Requeued contracts complete out of submission order; compare the
     per-contract reports address-sorted. *)
  let sorted_contracts r =
    List.sort compare
      (List.map
         (fun c -> Report.Json.to_string (Proxion.Serialize.contract_report_to_json c))
         r.Proxion.Analysis.contracts)
  in
  check_sl "per-contract reports recover to the fault-free figures"
    (sorted_contracts ref_report) (sorted_contracts final)

(* Per-item step budgets: exceeding one dead-letters the contract as
   [Budget_exhausted] (not transient, not permanent), and the default
   requeue classes cover it once the budget is lifted. *)
let test_chaos_step_budget_degrade () =
  let gen = { Generate.quick_config with Generate.total = 60; seed = 31 } in
  let no_dedup = Proxion.Analysis.Config.(default |> with_dedup false) in
  let starved = Transport.config ~step_budget:10 () in
  let t, _ = run_landscape ~gen ~config:no_dedup ~resilience:starved ~domains:1 () in
  let dead = Proxion.Analyzer.skipped t in
  (* The landscape deploys more contracts than [total] (logic targets
     ride along); the universe is whatever the starved run scheduled. *)
  let universe =
    List.length (Engine.results (Proxion.Analyzer.engine t)) + List.length dead
  in
  check_b "step starvation produced dead letters" true (dead <> []);
  List.iter
    (fun r ->
      check_b "classified budget-exhausted" true
        (r.Engine.sk_class = Engine.Budget_exhausted);
      check_b "attributed to a stage" true (r.Engine.sk_stage <> None);
      check_b "budget named in the message" true
        (contains ~needle:"evm-steps" r.Engine.sk_message))
    dead;
  let ck = Proxion.Analyzer.checkpoint t in
  let land_ = Generate.generate gen in
  let resumed =
    match
      Proxion.Analyzer.restore ~chain:land_.Generate.chain
        ~source:land_.Generate.source_of ck
    with
    | Ok t -> t
    | Error e -> Alcotest.failf "restore failed: %s" e
  in
  check_i "budget-exhausted entries are in the default requeue classes"
    (List.length dead)
    (Proxion.Analyzer.requeue resumed);
  Proxion.Analyzer.run resumed;
  check_i "all complete once the budget is lifted" 0
    (List.length (Proxion.Analyzer.skipped resumed));
  check_i "nothing left pending" 0 (Proxion.Analyzer.pending resumed);
  check_i "every contract reported" universe
    (List.length (Proxion.Analyzer.report resumed).Proxion.Analysis.contracts)

(* The accounting identity a replayed resolution counts by: a logical
   request costs one archive call however many endpoints relay it, and
   an injected fault costs none.  So under each transport setting, every
   completed slot proxy's logic-resolve stage made exactly its
   resolution's [api_calls] — the distinct heights Algorithm 1 read plus
   the head read — as the stage's event counted them on the worker's
   view.  Each setting must also have done what it exists for: retried
   a fault, dead-lettered a contract over budget, hedged, or outvoted a
   liar. *)
type observed = {
  retries : int;
  over_budget : bool;
  hedges : int;
  disagreements : int;
}

let test_resolution_calls_identity () =
  List.iter
    (fun (setting, exercised) ->
      List.iter
        (fun domains ->
          let label =
            Printf.sprintf "%s at %d domains" (setting_to_string setting) domains
          in
          let land_ = Generate.generate chaos_config in
          let t =
            Proxion.Analyzer.create
              ~config:
                Proxion.Analysis.Config.(
                  default |> with_batch_size 16 |> with_domains domains)
              ~resilience:(config_of setting) ~chain:land_.Generate.chain
              ~source:land_.Generate.source_of ()
          in
          let stage_calls = Hashtbl.create 64 in
          let retries = ref 0 in
          Proxion.Analyzer.subscribe t (function
            | Engine.Stage_finished
                { stage = Engine.Logic_resolve; subject; timing; _ } ->
                Hashtbl.replace stage_calls subject timing.Engine.t_api_calls
            | Engine.Retry_attempted _ -> incr retries
            | _ -> ());
          let hedges = Atomic.make 0 and disagreements = Atomic.make 0 in
          Proxion.Analyzer.set_transport_observer t
            (Some
               (function
               | Transport.Hedged _ -> Atomic.incr hedges
               | Transport.Quorum_disagreement _ -> Atomic.incr disagreements
               | _ -> ()));
          Proxion.Analyzer.submit_all t;
          Proxion.Analyzer.run t;
          let slot_proxies =
            List.filter_map
              (fun (r : Proxion.Analysis.contract_report) ->
                match
                  ( r.Proxion.Analysis.r_detection.Proxion.Proxy_detect.verdict,
                    r.Proxion.Analysis.r_resolution )
                with
                | ( Proxion.Proxy_detect.Proxy
                      { source = Proxion.Proxy_detect.Storage_slot _; _ },
                    Some res ) ->
                    Some (Evm.Address.to_hex r.Proxion.Analysis.r_address, res)
                | _ -> None)
              (Proxion.Analyzer.report t).Proxion.Analysis.contracts
          in
          check_b (label ^ ": slot proxies completed") true (slot_proxies <> []);
          List.iter
            (fun (subject, res) ->
              Alcotest.(check (option int))
                (Printf.sprintf "%s: %s's logic-resolve calls" label subject)
                (Some res.Proxion.Logic_resolve.api_calls)
                (Hashtbl.find_opt stage_calls subject))
            slot_proxies;
          check_b (label ^ ": exercised") true
            (exercised
               {
                 retries = !retries;
                 over_budget =
                   List.exists
                     (fun r -> r.Engine.sk_class = Engine.Budget_exhausted)
                     (Proxion.Analyzer.skipped t);
                 hedges = Atomic.get hedges;
                 disagreements = Atomic.get disagreements;
               }))
        (List.sort_uniq Int.compare [ 1; domains_under_test ]))
    [
      ( Faulty { seed = chaos_seed; percent = 20; window = 3 },
        fun o -> o.retries > 0 );
      (Budgeted 16, fun o -> o.over_budget);
      (Failover chaos_seed, fun o -> o.hedges > 0);
      (Byzantine_quorum chaos_seed, fun o -> o.disagreements > 0);
    ]

let suite =
  [
    Alcotest.test_case "retry backoff is deterministic and capped" `Quick
      test_retry_determinism;
    Alcotest.test_case "fault plans are pure functions of seed and salt" `Quick
      test_fault_plan_determinism;
    Alcotest.test_case "drop windows fail exactly their call range" `Quick
      test_fault_plan_drop_window;
    Alcotest.test_case "breaker walks closed/open/half-open deterministically"
      `Quick test_breaker_transitions;
    Alcotest.test_case "transport retries transients to success" `Quick
      test_transport_retries_to_success;
    Alcotest.test_case "transport surfaces exhausted transients" `Quick
      test_transport_gives_up;
    Alcotest.test_case "transport breaker trips and recovers" `Quick
      test_transport_breaker_cycle;
    Alcotest.test_case "batch recovers partial failures to direct results"
      `Quick test_batch_partial_failure_recovers;
    Alcotest.test_case "batch preserves order under partial failure" `Quick
      test_batch_partial_failure_order;
    Alcotest.test_case "permanent errors are never retried" `Quick
      test_permanent_errors_not_retried;
    Alcotest.test_case "call and step budgets raise when exhausted" `Quick
      test_call_budget_exhaustion;
    Alcotest.test_case "typed reads equal the facade under every transport setting"
      `Quick test_typed_reads_equal_facade;
    Alcotest.test_case "dead letters survive checkpoint round-trips" `Quick
      test_dead_letter_checkpoint_roundtrip;
    Alcotest.test_case "chaos run is byte-identical once transients clear"
      `Quick test_chaos_transient_identity;
    Alcotest.test_case "harsh chaos degrades and requeues to fault-free figures"
      `Quick test_chaos_degrade_and_requeue;
    Alcotest.test_case "step starvation dead-letters as budget-exhausted" `Quick
      test_chaos_step_budget_degrade;
    Alcotest.test_case
      "every slot proxy's resolution calls match its stage's under every plan"
      `Quick test_resolution_calls_identity;
  ]
