(* The reorg-and-quorum harness: the multi-endpoint chain layer and the
   rollback path of incremental analysis.

   Transport level — a unanimous N-of-N pool must return the canonical
   answer from a single logical dispatch; a Byzantine endpoint outvoted
   2-of-3 must never poison an answer and must end up quarantined behind
   its breaker; a pool of lagging endpoints must report a confirmed head
   that stalls but never regresses.  Chain level — [rewind_to] followed
   by re-mining the same deployments must be byte-identical to a chain
   that never rewound (reused addresses, reverted storage).  Daemon
   level — seeded reorgs under a 3-endpoint pool with one Byzantine
   member must leave the store byte-identical to a cold full re-run over
   the post-reorg chain at DOMAINS 1 and 4, count retracted findings,
   serve the reorg history over the wire, and recover warm from the
   journal with that history intact.

   Knobs mirror the CI matrix: CHAOS_SEED seeds the fault plans
   (default 1) and DOMAINS the parallel worker count (default 4). *)

module Generate = Dataset.Generate
module Transport = Resilience.Transport
module Json = Report.Json
module Wire = Serve.Wire
module Daemon = Serve.Daemon
module Advance = Serve.Advance

let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)
let check_s = Alcotest.(check string)

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

(* ------------------------------------------------------------------ *)
(* Quorum cross-validation                                             *)
(* ------------------------------------------------------------------ *)

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

let test_quorum_unanimous () =
  (* N = K: every endpoint must agree before the answer is consumed —
     and all of them do, off ONE logical dispatch to the node. *)
  let chain, a = rigged_chain () in
  let cfg =
    Transport.config
      ~endpoints:
        [
          Transport.endpoint "archive-1";
          Transport.endpoint "archive-2";
          Transport.endpoint "archive-3";
        ]
      ~quorum:3 ()
  in
  let t = Transport.create ~config:cfg ~chain () in
  check_i "pool size" 3 (Transport.pool_size t);
  check_i "quorum" 3 (Transport.quorum t);
  let meth, params = storage_req a 0 in
  let direct = Chain_rpc.call chain ~meth ~params in
  Chain.reset_api_call_count chain;
  check_b "unanimous pool returns the canonical answer" true
    (Transport.call t (Chain_rpc.request ~meth ~params) = direct);
  (* The §6.1 accounting identity survives quorum fan-out: one logical
     request = one canonical API call, however many endpoints vote. *)
  check_i "one canonical API call despite 3 voters" 1
    (Chain.api_call_count chain);
  let s = Transport.stats t in
  check_i "one dispatch counted" 1 s.Transport.dispatched;
  check_i "no disagreements" 0 s.Transport.disagreements;
  check_i "no quorum failures" 0 s.Transport.quorum_failures;
  List.iter
    (fun es ->
      check_i
        (Printf.sprintf "%s served the request" es.Transport.eps_name)
        1 es.Transport.eps_served)
    (Transport.endpoint_stats t)

let test_byzantine_outvoted () =
  (* A 2-of-3 quorum with one always-lying member: every answer stays
     canonical, and the liar is quarantined behind its breaker. *)
  let chain, a = rigged_chain () in
  let cfg =
    Transport.config
      ~endpoints:
        [
          Transport.endpoint "honest-1";
          Transport.endpoint "honest-2";
          Transport.endpoint ~byzantine:1.0 ~byz_seed:chaos_seed "liar";
        ]
      ~quorum:2 ()
  in
  let events = ref [] in
  let t =
    Transport.create ~config:cfg
      ~on_event:(fun e -> events := e :: !events)
      ~chain ()
  in
  for slot = 0 to 7 do
    let meth, params = storage_req a slot in
    let direct = Chain_rpc.call chain ~meth ~params in
    check_b
      (Printf.sprintf "slot %d: the liar never poisons the answer" slot)
      true
      (Transport.call t (Chain_rpc.request ~meth ~params) = direct)
  done;
  let s = Transport.stats t in
  check_b "disagreements were recorded" true (s.Transport.disagreements >= 1);
  check_i "the honest majority never failed quorum" 0
    s.Transport.quorum_failures;
  let liar =
    List.find
      (fun es -> es.Transport.eps_name = "liar")
      (Transport.endpoint_stats t)
  in
  check_b "the liar's disagreements are attributed" true
    (liar.Transport.eps_disagreed >= 1);
  check_b "the liar is quarantined via its breaker" true
    (liar.Transport.eps_opens >= 1);
  (* Honest endpoints never disagreed and were never quarantined. *)
  List.iter
    (fun es ->
      if es.Transport.eps_name <> "liar" then begin
        check_i
          (Printf.sprintf "%s never disagreed" es.Transport.eps_name)
          0 es.Transport.eps_disagreed;
        check_i
          (Printf.sprintf "%s never opened" es.Transport.eps_name)
          0 es.Transport.eps_opens
      end)
    (Transport.endpoint_stats t);
  (* Every disagreement event names the liar, nobody else. *)
  List.iter
    (function
      | Transport.Quorum_disagreement { endpoint; _ } ->
          check_s "disagreement event names the liar" "liar" endpoint
      | _ -> ())
    !events

let test_lagging_pool_head_stalls () =
  (* All endpoints lagging: the confirmed head is the quorum-th largest
     reported height — it stalls behind the true head but never
     regresses. *)
  let chain, _ = rigged_chain () in
  Chain.advance_blocks chain 20;
  let cfg =
    Transport.config
      ~endpoints:
        [
          Transport.endpoint ~lag:5 "a";
          Transport.endpoint ~lag:5 "b";
          Transport.endpoint ~lag:5 "c";
        ]
      ~quorum:2 ()
  in
  let t = Transport.create ~config:cfg ~chain () in
  let h = Chain.height chain in
  check_i "uniformly lagging pool confirms height - lag" (h - 5)
    (Transport.head_height t);
  check_i "repeated reads are stable" (h - 5) (Transport.head_height t);
  Chain.advance_blocks chain 3;
  check_i "the confirmed head grows with the chain" (h - 2)
    (Transport.head_height t);
  check_b "the confirmed head never regresses" true
    (Transport.head_height t >= h - 2);
  (* Mixed lags: quorum 2 of [0; 4; 9] confirms the 2nd-largest view. *)
  let cfg2 =
    Transport.config
      ~endpoints:
        [
          Transport.endpoint "synced";
          Transport.endpoint ~lag:4 "mid";
          Transport.endpoint ~lag:9 "slow";
        ]
      ~quorum:2 ()
  in
  let t2 = Transport.create ~config:cfg2 ~chain () in
  check_i "mixed lags: quorum-th largest wins" (Chain.height chain - 4)
    (Transport.head_height t2)

(* ------------------------------------------------------------------ *)
(* Chain rewind                                                        *)
(* ------------------------------------------------------------------ *)

let test_rewind_remine_identity () =
  let runtime1 = "\x60\x01\x60\x00\x55" in
  let runtime2 = "\x60\x02\x60\x00\x55" in
  let observe chain =
    ( Chain.height chain,
      List.map
        (fun (m : Chain.contract_meta) ->
          ( Evm.Address.to_hex m.Chain.cm_address,
            m.Chain.cm_deploy_height,
            Chain.code_hash chain m.Chain.cm_address,
            Chain.code_at chain m.Chain.cm_address ))
        (Chain.all_contracts chain) )
  in
  let build () =
    let chain = Chain.create () in
    let base = Chain.install_contract chain ~runtime:"\x00" () in
    Chain.set_storage_direct chain base U256.one (U256.of_int 5);
    (chain, base)
  in
  (* The straight-line chain. *)
  let chain_a, _ = build () in
  ignore (Chain.install_contract chain_a ~runtime:runtime1 ());
  ignore (Chain.install_contract chain_a ~runtime:runtime2 ());
  (* The rewound chain: doomed fork blocks, rollback, then the same
     deployments re-mined. *)
  let chain_b, base_b = build () in
  let fork_base = Chain.height chain_b in
  let doomed = Chain.install_contract chain_b ~runtime:"\x01\x02" () in
  Chain.set_storage_direct chain_b base_b U256.one (U256.of_int 9);
  let rw = Chain.rewind_to chain_b ~height:fork_base in
  check_b "the doomed deployment is orphaned" true
    (List.exists (Evm.Address.equal doomed) rw.Chain.rw_orphaned);
  check_b "the overwritten survivor is reported reverted" true
    (List.exists (Evm.Address.equal base_b) rw.Chain.rw_reverted_writes);
  check_b "orphaned code is gone" true (Chain.code_at chain_b doomed = "");
  check_b "the fork write is rolled back" true
    (U256.equal (U256.of_int 5)
       (Chain.get_storage_at chain_b base_b U256.one
          ~height:(Chain.height chain_b)));
  ignore (Chain.install_contract chain_b ~runtime:runtime1 ());
  ignore (Chain.install_contract chain_b ~runtime:runtime2 ());
  check_b "rewind + re-mine = a chain that never rewound" true
    (observe chain_a = observe chain_b);
  (* A no-op rewind (height >= head) rolls back nothing. *)
  let rw2 = Chain.rewind_to chain_b ~height:(Chain.height chain_b + 10) in
  check_b "rewinding past the head is a no-op" true
    (rw2.Chain.rw_orphaned = [] && rw2.Chain.rw_reverted_writes = [])

(* ------------------------------------------------------------------ *)
(* Scripted reorgs                                                     *)
(* ------------------------------------------------------------------ *)

let gen_config = { Generate.quick_config with Generate.total = 60; seed = 11 }

let reorg_fingerprint (s : Advance.summary) =
  let addrs l = String.concat "," (List.map Evm.Address.to_hex l) in
  let rg =
    match s.Advance.a_reorg with
    | None -> "-"
    | Some rg ->
        Printf.sprintf "d%d@%d[%s][%s]" rg.Advance.rg_depth
          rg.Advance.rg_rollback_to
          (addrs rg.Advance.rg_orphaned)
          (addrs rg.Advance.rg_reverted_writes)
  in
  Printf.sprintf "#%d h%d new[%s] w[%s] %s" s.Advance.a_index
    s.Advance.a_height
    (addrs s.Advance.a_new_contracts)
    (addrs s.Advance.a_writes)
    rg

let test_advance_reorg_determinism () =
  (* Depth 0 is the legacy stream: no rollback ever, strictly forward. *)
  let a0 =
    Advance.create ~seed:5
      ~spec:{ Advance.deployments = 3; upgrades = 2; reorg_depth = 0 }
      (Generate.generate gen_config)
  in
  let prev = ref 0 in
  for i = 1 to 5 do
    let s = Advance.apply a0 in
    check_b (Printf.sprintf "depth 0: advance %d has no reorg" i) true
      (s.Advance.a_reorg = None);
    check_b (Printf.sprintf "depth 0: advance %d moves forward" i) true
      (s.Advance.a_height > !prev);
    prev := s.Advance.a_height
  done;
  (* Depth 3: two advancers over identical landscapes emit identical
     streams — the purity warm recovery depends on — and reorgs fire. *)
  let spec3 = { Advance.deployments = 3; upgrades = 2; reorg_depth = 3 } in
  let stream () =
    let a = Advance.create ~seed:5 ~spec:spec3 (Generate.generate gen_config) in
    List.init 8 (fun _ -> Advance.apply a)
  in
  let s1 = stream () and s2 = stream () in
  Alcotest.(check (list string))
    "identical landscapes, identical reorg streams"
    (List.map reorg_fingerprint s1)
    (List.map reorg_fingerprint s2);
  check_b "seeded reorgs actually fire" true
    (List.exists (fun s -> s.Advance.a_reorg <> None) s1);
  List.iter
    (fun s ->
      match s.Advance.a_reorg with
      | None -> ()
      | Some rg ->
          check_b "rolled-back depth within the configured bound" true
            (rg.Advance.rg_depth >= 1 && rg.Advance.rg_depth <= 3))
    s1

(* ------------------------------------------------------------------ *)
(* Daemon: rollback-safe incremental analysis                          *)
(* ------------------------------------------------------------------ *)

let small_config =
  { Generate.quick_config with Generate.total = 120; seed = 33 }

let report_string r = Json.to_string (Proxion.Serialize.report_to_json r)

let analysis_config domains =
  Proxion.Pipeline.Config.(
    default |> with_batch_size 16 |> with_domains domains)

let cold_report ~domains (land_ : Generate.t) =
  let t =
    Proxion.Analyzer.create
      ~config:(analysis_config domains)
      ~chain:land_.Generate.chain ~source:land_.Generate.source_of ()
  in
  Proxion.Analyzer.submit_all t;
  Proxion.Analyzer.run t;
  Proxion.Analyzer.report t

let reorg_spec = { Advance.deployments = 3; upgrades = 2; reorg_depth = 3 }

(* The acceptance pool: 3 endpoints, one Byzantine, 2-of-3 quorum. *)
let pool_resilience =
  Transport.config
    ~endpoints:
      [
        Transport.endpoint "archive-1";
        Transport.endpoint "archive-2";
        Transport.endpoint ~byzantine:0.25 ~byz_seed:chaos_seed "archive-3";
      ]
    ~quorum:2 ()

(* Advance seed picked so the depth-3 coin both fires and reaches back
   far enough to orphan deployments within the 6 scripted advances. *)
let daemon_config domains =
  Serve.Config.(
    default
    |> with_analysis (analysis_config domains)
    |> with_workers 2
    |> with_advance_seed 28
    |> with_advance_spec reorg_spec
    |> with_resilience pool_resilience)

let warm_report d =
  report_string
    (Serve.Store.report (Daemon.store d) ~unique_codes:(Daemon.unique_codes d))

let call_daemon d meth params =
  let payload = Wire.request_to_string ~id:1 ~meth ~params () in
  let _, response = Daemon.handle d payload in
  match Wire.response_of_string response with
  | Ok r -> r.Wire.rs_result
  | Error e -> Alcotest.failf "unparsable response: %s" e

let get_ok = function
  | Ok j -> j
  | Error e ->
      Alcotest.failf "unexpected error %d: %s" e.Wire.code e.Wire.message

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

let run_reorg_identity domains =
  let land_ = Generate.generate small_config in
  let d =
    match Daemon.create ~config:(daemon_config domains) land_ with
    | Ok d -> d
    | Error e -> Alcotest.failf "daemon create failed: %s" e
  in
  let reorgs_seen = ref 0 and orphans_seen = ref 0 and retracted = ref 0 in
  for i = 1 to 6 do
    let r = Daemon.advance d in
    (match r.Daemon.adv_summary.Advance.a_reorg with
    | Some rg ->
        incr reorgs_seen;
        orphans_seen := !orphans_seen + List.length rg.Advance.rg_orphaned
    | None -> ());
    retracted := !retracted + r.Daemon.adv_retracted;
    (* The rollback-safety identity: after every advance — reorg or not —
       the patched store matches a cold full re-run over the chain as it
       now stands. *)
    check_s
      (Printf.sprintf "domains %d, advance %d: post-rollback store = cold"
         domains i)
      (report_string (cold_report ~domains:1 land_))
      (warm_report d)
  done;
  check_b "seeded reorgs fired during the watch" true (!reorgs_seen >= 1);
  check_b "at least one reorg orphaned deployments" true (!orphans_seen >= 1);
  (* The reorg history is queryable in-process and over the wire. *)
  let log = Daemon.reorgs d in
  check_i "reorg log length matches the summaries" !reorgs_seen
    (List.length log);
  let wire = get_ok (call_daemon d "reorgs" []) in
  check_i "wire method reports the same count" !reorgs_seen
    (int_field "count" wire);
  (* Retractions are surfaced in the metrics families. *)
  let metrics =
    match get_ok (call_daemon d "metrics" []) with
    | Json.String text -> text
    | _ -> Alcotest.fail "metrics not a string"
  in
  check_b "reorg counter family exported" true
    (contains ~needle:"proxion_serve_reorgs_total" metrics);
  check_b "retraction counter family exported" true
    (contains ~needle:"proxion_serve_retracted_findings_total" metrics);
  check_b "endpoint attempt families exported" true
    (contains ~needle:"proxion_chain_endpoint" metrics);
  !retracted

let test_daemon_reorg_identity_seq () = ignore (run_reorg_identity 1)

let test_daemon_reorg_identity_par () =
  ignore (run_reorg_identity domains_under_test)

let temp_journal () =
  let path = Filename.temp_file "proxion_reorg" ".journal" in
  Sys.remove path;
  path

let test_daemon_reorg_warm_recovery () =
  let path = temp_journal () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let config =
        Serve.Config.(
          daemon_config 1
          |> with_journal (Some path)
          |> with_journal_fsync false)
      in
      let land1 = Generate.generate small_config in
      let d1 =
        match Daemon.create ~config land1 with
        | Ok d -> d
        | Error e -> Alcotest.failf "daemon create failed: %s" e
      in
      for _ = 1 to 5 do
        ignore (Daemon.advance d1)
      done;
      check_b "a reorg was rolled back before the kill" true
        (Daemon.reorgs d1 <> []);
      let bytes1 = warm_report d1 in
      (* Simulate SIGKILL mid-watch: drop d1 without stopping it and
         recover from a freshly generated landscape + the journal. *)
      let land2 = Generate.generate small_config in
      match Daemon.create ~config land2 with
      | Error e -> Alcotest.failf "recovery failed: %s" e
      | Ok d2 ->
          check_b "recovered warm" true (Daemon.recovered d2);
          check_i "advances restored" 5 (Daemon.advances_applied d2);
          check_s "store identical after recovery" bytes1 (warm_report d2);
          (* The reorg history is rebuilt deterministically on replay. *)
          check_b "reorg history restored bit-for-bit" true
            (Daemon.reorgs d1 = Daemon.reorgs d2);
          (* The recovered daemon keeps rolling reorgs back correctly. *)
          ignore (Daemon.advance d2);
          check_s "post-recovery advance = cold"
            (report_string (cold_report ~domains:1 land2))
            (warm_report d2))

let suite =
  [
    Alcotest.test_case "unanimous N-of-N quorum is one canonical dispatch"
      `Quick test_quorum_unanimous;
    Alcotest.test_case "a Byzantine endpoint is outvoted and quarantined"
      `Quick test_byzantine_outvoted;
    Alcotest.test_case "a lagging pool's confirmed head stalls, never regresses"
      `Quick test_lagging_pool_head_stalls;
    Alcotest.test_case "rewind + re-mine is byte-identical to no rewind" `Quick
      test_rewind_remine_identity;
    Alcotest.test_case "scripted reorgs are deterministic; depth 0 is a no-op"
      `Quick test_advance_reorg_determinism;
    Alcotest.test_case "reorg rollback matches a cold re-run (seq)" `Quick
      test_daemon_reorg_identity_seq;
    Alcotest.test_case "reorg rollback matches a cold re-run (par)" `Quick
      test_daemon_reorg_identity_par;
    Alcotest.test_case "warm recovery replays the reorg history" `Quick
      test_daemon_reorg_warm_recovery;
  ]
