open Proxion
module Patterns = Minisol.Patterns
module Codegen = Minisol.Codegen
module Ast = Minisol.Ast

let check_s = Alcotest.(check string)
let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)
let u = Alcotest.testable U256.pp U256.equal
let check_u = Alcotest.check u
let alice = Evm.Address.of_hex "0x00000000000000000000000000000000000a11ce"
let mallory = Evm.Address.of_hex "0x0000000000000000000000000000000000ba0bab"

let deploy chain ?(from = alice) c =
  match Chain.deploy chain ~from ~init_code:(Codegen.init_code c) () with
  | Ok addr -> addr
  | Error e -> Alcotest.failf "deploy %s failed: %s" c.Ast.c_name e

let call_fn chain ~from ~to_ ?(args = []) signature =
  Chain.call chain ~from ~to_ ~input:(Evm.Abi.encode_call ~signature args) ()

(* ------------------------------------------------------------------ *)
(* Selector extraction                                                 *)
(* ------------------------------------------------------------------ *)

let test_dispatcher_extraction () =
  let code = Codegen.runtime (Patterns.counter_logic ()) in
  let found = Selector_extract.dispatcher_selectors code in
  let expected = Ast.selectors (Patterns.counter_logic ()) in
  check_i "finds all three" 3 (List.length found);
  List.iter
    (fun sel -> check_b ("found " ^ Hexutil.to_hex sel) true (List.mem sel found))
    expected

let test_naive_push4_false_positives () =
  (* The library caller embeds the selector of add(uint256,uint256) via
     PUSH4 outside any dispatcher: naive harvesting reports it, the
     dispatcher extractor must not. *)
  let lib = Evm.Address.of_hex "0x00000000000000000000000000000000000005af" in
  let code = Codegen.runtime (Patterns.library_caller ~lib) in
  let embedded = Keccak.selector "add(uint256,uint256)" in
  check_b "naive sees the embedded constant" true
    (List.mem embedded (Selector_extract.naive_push4 code));
  check_b "dispatcher extraction rejects it" false
    (List.mem embedded (Selector_extract.dispatcher_selectors code));
  (* And the real functions are still found. *)
  check_b "real function found" true
    (List.mem
       (Keccak.selector "addChecked(uint256,uint256)")
       (Selector_extract.dispatcher_selectors code))

let test_probe_avoids_all_push4 () =
  let code = Codegen.runtime (Patterns.counter_logic ()) in
  let probe = Proxy_detect.probe_calldata ~code ~seed:7 in
  check_i "selector+arg" 36 (String.length probe);
  check_b "probe avoids every PUSH4" false
    (List.mem (Hexutil.take 4 probe) (Selector_extract.naive_push4 code))

(* ------------------------------------------------------------------ *)
(* Proxy detection                                                     *)
(* ------------------------------------------------------------------ *)

let test_detect_minimal_proxy () =
  let logic = Evm.Address.of_hex "0x1111111111111111111111111111111111111111" in
  let d = Proxy_detect.detect_code (Patterns.eip1167_runtime logic) in
  (match d.Proxy_detect.verdict with
  | Proxy_detect.Proxy { target; source = Proxy_detect.Hardcoded } ->
      check_s "target" (Evm.Address.to_hex logic) (Evm.Address.to_hex target)
  | _ -> Alcotest.fail "expected hardcoded proxy");
  check_b "is_proxy" true (Proxy_detect.is_proxy d)

let test_detect_slot_proxy_on_chain () =
  let chain = Chain.create () in
  let logic = deploy chain (Patterns.counter_logic ()) in
  let proxy = deploy chain (Patterns.slot_var_proxy ()) in
  Chain.set_storage_direct chain proxy U256.one (Evm.Address.to_u256 logic);
  let host = Chain.host_at_head chain in
  let d = Proxy_detect.detect ~host proxy in
  match d.Proxy_detect.verdict with
  | Proxy_detect.Proxy { target; source = Proxy_detect.Storage_slot slot } ->
      check_s "target is logic" (Evm.Address.to_hex logic) (Evm.Address.to_hex target);
      check_u "slot 1" U256.one slot
  | _ -> Alcotest.fail "expected slot-based proxy"

let test_detect_eip1967_slot () =
  let chain = Chain.create () in
  let logic = deploy chain (Patterns.counter_logic ()) in
  let proxy = deploy chain (Patterns.eip1967_proxy ()) in
  Chain.set_storage_direct chain proxy Patterns.eip1967_implementation_slot
    (Evm.Address.to_u256 logic);
  let host = Chain.host_at_head chain in
  let d = Proxy_detect.detect ~host proxy in
  match d.Proxy_detect.verdict with
  | Proxy_detect.Proxy { source = Proxy_detect.Storage_slot slot; _ } ->
      check_u "eip1967 slot" Patterns.eip1967_implementation_slot slot
  | _ -> Alcotest.fail "expected eip1967 slot proxy"

let test_detect_non_proxy_no_delegatecall () =
  let d = Proxy_detect.detect_code (Codegen.runtime (Patterns.counter_logic ())) in
  check_b "prefilter rejects" true
    (d.Proxy_detect.verdict = Proxy_detect.Not_proxy_no_delegatecall)

let test_detect_library_caller_excluded () =
  (* DELEGATECALL present, but only inside a function body — the probe's
     unknown selector never reaches it, so this is NOT a proxy (§2.2). *)
  let lib = Evm.Address.of_hex "0x00000000000000000000000000000000000005af" in
  let d = Proxy_detect.detect_code (Codegen.runtime (Patterns.library_caller ~lib)) in
  check_b "library caller excluded" true
    (d.Proxy_detect.verdict = Proxy_detect.Not_proxy_no_forward)

let test_detect_diamond_missed () =
  (* The diamond's facet gate rejects the random probe: ProxioN misses it,
     exactly as §8.1 concedes. *)
  let d = Proxy_detect.detect_code (Codegen.runtime (Patterns.diamond_proxy ())) in
  check_b "diamond missed" true
    (d.Proxy_detect.verdict = Proxy_detect.Not_proxy_no_forward)

let test_detect_hidden_contract () =
  (* A slot proxy with EMPTY storage and no transactions: the hidden case
     that defeats source-based and history-based tools.  Emulation still
     observes the forwarding delegatecall (to the zero address). *)
  let d = Proxy_detect.detect_code (Codegen.runtime (Patterns.slot_var_proxy ())) in
  match d.Proxy_detect.verdict with
  | Proxy_detect.Proxy { target; source = Proxy_detect.Storage_slot slot } ->
      check_b "zero target" true (Evm.Address.equal target Evm.Address.zero);
      check_u "slot 1" U256.one slot
  | _ -> Alcotest.fail "hidden slot proxy must still be detected"

let test_detection_does_not_mutate_state () =
  let chain = Chain.create () in
  let logic = deploy chain (Patterns.audius_logic ()) in
  let proxy = deploy chain (Patterns.audius_proxy ()) in
  Chain.set_storage_direct chain proxy U256.one (Evm.Address.to_u256 logic);
  let host = Chain.host_at_head chain in
  let before = host.Evm.Host.get_storage proxy U256.zero in
  let _ = Proxy_detect.detect ~host proxy in
  check_u "storage unchanged by probe" before
    (host.Evm.Host.get_storage proxy U256.zero)

(* EIP-1967 beacon proxy: the logic address is computed via a nested
   STATICCALL, so detection must report a Computed source, and resolution
   falls back to the probed target. *)
let test_detect_beacon_proxy () =
  let chain = Chain.create () in
  let logic = deploy chain (Patterns.counter_logic ()) in
  let beacon = deploy chain ~from:alice (Patterns.beacon ()) in
  let r =
    call_fn chain ~from:alice ~to_:beacon "upgradeTo(address)"
      ~args:[ Evm.Abi.Addr logic ]
  in
  check_b "beacon configured" true (r.Chain.tx_status = Evm.Interp.Returned);
  let proxy = deploy chain (Patterns.beacon_proxy ()) in
  Chain.set_storage_direct chain proxy Patterns.eip1967_beacon_slot
    (Evm.Address.to_u256 beacon);
  (* The beacon proxy forwards through its nested staticcall. *)
  let rec_ = call_fn chain ~from:mallory ~to_:proxy "increment()" in
  check_b "forwarding works" true (rec_.Chain.tx_status = Evm.Interp.Returned);
  let host = Chain.host_at_head chain in
  let d = Proxy_detect.detect ~host proxy in
  (match d.Proxy_detect.verdict with
  | Proxy_detect.Proxy { target; source = Proxy_detect.Computed } ->
      check_s "probed target is the logic" (Evm.Address.to_hex logic)
        (Evm.Address.to_hex target)
  | Proxy_detect.Proxy { source = _; _ } ->
      Alcotest.fail "expected Computed source for beacon"
  | _ -> Alcotest.fail "beacon proxy not detected");
  (* Resolution uses the probed target. *)
  let res = Logic_resolve.resolve ~probed:logic chain proxy Proxy_detect.Computed in
  Alcotest.(check (list string))
    "resolved to probed target"
    [ Evm.Address.to_hex logic ]
    (List.map Evm.Address.to_hex res.Logic_resolve.historical);
  (* And the pipeline produces a pair for it. *)
  let report =
    Analyzer.analyze ~chain ~source:(fun _ -> None)
      ~addresses:[ proxy; logic; beacon ] ()
  in
  let pr =
    List.find
      (fun r -> Evm.Address.equal r.Analysis.r_address proxy)
      report.Analysis.contracts
  in
  check_i "one pair via probed target" 1 (List.length pr.Analysis.r_pairs)

(* The 8.2 extension: historical-selector probing recovers diamonds. *)
let test_diamond_probe_extension () =
  let chain = Chain.create () in
  let facet = deploy chain (Patterns.counter_logic ()) in
  let proxy = deploy chain ~from:alice (Patterns.diamond_proxy ()) in
  let sel_word = U256.of_bytes_be (Keccak.selector "increment()") in
  let r =
    call_fn chain ~from:alice ~to_:proxy "setFacet(uint256,address)"
      ~args:[ Evm.Abi.Uint sel_word; Evm.Abi.Addr facet ]
  in
  check_b "facet registered" true (r.Chain.tx_status = Evm.Interp.Returned);
  (* A user exercises the registered selector: this is the history the
     extension harvests. *)
  let r = call_fn chain ~from:mallory ~to_:proxy "increment()" in
  check_b "facet call works" true (r.Chain.tx_status = Evm.Interp.Returned);
  (* Base probe still misses it... *)
  let host = Chain.host_at_head chain in
  check_b "base probe misses" false
    (Proxy_detect.is_proxy (Proxy_detect.detect ~host proxy));
  (* ...but the history-assisted probe finds it. *)
  let d = Diamond_probe.detect chain proxy in
  (match d.Proxy_detect.verdict with
  | Proxy_detect.Proxy { target; _ } ->
      check_s "facet recovered" (Evm.Address.to_hex facet) (Evm.Address.to_hex target)
  | _ -> Alcotest.fail "diamond extension should detect the proxy");
  (* Hidden diamonds (no transactions) remain undetectable. *)
  let hidden = deploy chain ~from:alice (Patterns.diamond_proxy ()) in
  check_b "hidden diamond still missed" false
    (Proxy_detect.is_proxy (Diamond_probe.detect chain hidden))

let test_diamond_probe_no_false_positive () =
  let chain = Chain.create () in
  let counter = deploy chain (Patterns.counter_logic ()) in
  let r = call_fn chain ~from:alice ~to_:counter "increment()" in
  check_b "tx ok" true (r.Chain.tx_status = Evm.Interp.Returned);
  check_b "plain contract with history not flagged" false
    (Proxy_detect.is_proxy (Diamond_probe.detect chain counter));
  (* A library caller with history is still excluded. *)
  let user = deploy chain (Patterns.library_caller ~lib:counter) in
  let r =
    call_fn chain ~from:alice ~to_:user "addChecked(uint256,uint256)"
      ~args:[ Evm.Abi.Uint U256.one; Evm.Abi.Uint U256.one ]
  in
  check_b "lib tx ok" true (r.Chain.tx_status = Evm.Interp.Returned);
  check_b "library caller still excluded" false
    (Proxy_detect.is_proxy (Diamond_probe.detect chain user))

let test_pipeline_diamond_extension () =
  let chain = Chain.create () in
  let facet = deploy chain (Patterns.counter_logic ()) in
  let proxy = deploy chain ~from:alice (Patterns.diamond_proxy ()) in
  let sel_word = U256.of_bytes_be (Keccak.selector "increment()") in
  ignore
    (call_fn chain ~from:alice ~to_:proxy "setFacet(uint256,address)"
       ~args:[ Evm.Abi.Uint sel_word; Evm.Abi.Addr facet ]);
  ignore (call_fn chain ~from:mallory ~to_:proxy "increment()");
  let base = Analyzer.analyze ~chain ~source:(fun _ -> None) () in
  let ext =
    Analyzer.analyze
      ~config:{ Analysis.Config.default with diamond_extension = true }
      ~chain ~source:(fun _ -> None) ()
  in
  let is_proxy report =
    List.exists
      (fun r ->
        Evm.Address.equal r.Analysis.r_address proxy && Analysis.is_proxy_report r)
      report.Analysis.contracts
  in
  check_b "baseline pipeline misses the diamond" false (is_proxy base);
  check_b "extended pipeline recovers it" true (is_proxy ext)

(* ------------------------------------------------------------------ *)
(* Logic resolution (Algorithm 1)                                      *)
(* ------------------------------------------------------------------ *)

let test_algorithm1_recovers_history () =
  let chain = Chain.create () in
  let proxy = deploy chain (Patterns.slot_var_proxy ()) in
  let slot = U256.one in
  let logic1 = Evm.Address.of_hex "0x1000000000000000000000000000000000000001" in
  let logic2 = Evm.Address.of_hex "0x2000000000000000000000000000000000000002" in
  let logic3 = Evm.Address.of_hex "0x3000000000000000000000000000000000000003" in
  Chain.advance_blocks chain 100;
  Chain.set_storage_direct chain proxy slot (Evm.Address.to_u256 logic1);
  Chain.advance_blocks chain 500;
  Chain.set_storage_direct chain proxy slot (Evm.Address.to_u256 logic2);
  Chain.advance_blocks chain 2000;
  Chain.set_storage_direct chain proxy slot (Evm.Address.to_u256 logic3);
  Chain.advance_blocks chain 300;
  let r, _ = Logic_resolve.resolve_slot chain proxy ~slot in
  Alcotest.(check (list string))
    "all three logics in order"
    (List.map Evm.Address.to_hex [ logic1; logic2; logic3 ])
    (List.map Evm.Address.to_hex r.Logic_resolve.historical);
  (match r.Logic_resolve.current with
  | Some c -> check_s "current" (Evm.Address.to_hex logic3) (Evm.Address.to_hex c)
  | None -> Alcotest.fail "current missing");
  check_i "upgrade count" 2 r.Logic_resolve.upgrade_count;
  (* The binary search must beat the naive scan by orders of magnitude. *)
  check_b
    (Printf.sprintf "api calls %d << height %d" r.Logic_resolve.api_calls
       (Chain.height chain))
    true
    (r.Logic_resolve.api_calls < Chain.height chain / 10);
  (* Archive calls for a 3-upgrade history grow with the log of the
     height (the naive scan reads every block): these are the figures
     EXPERIMENTS.md cites. *)
  let calls_at height =
    let c = Chain.create () in
    let proxy = Chain.install_contract c ~runtime:"\x00" () in
    let step = height / 4 in
    List.iteri
      (fun i logic ->
        Chain.advance_blocks c (step * i);
        Chain.set_storage_direct c proxy U256.zero (U256.of_int logic))
      [ 0x100; 0x200; 0x300 ];
    Chain.advance_blocks c (height - Chain.height c);
    (fst (Logic_resolve.resolve_slot c proxy ~slot:U256.zero))
      .Logic_resolve.api_calls
  in
  List.iter
    (fun (height, calls) ->
      check_i (Printf.sprintf "archive calls at %d blocks" height) calls
        (calls_at height))
    [ (1_000, 51); (100_000, 93); (15_000_000, 135) ]

let test_algorithm1_static_slot () =
  let chain = Chain.create () in
  let proxy = deploy chain (Patterns.slot_var_proxy ()) in
  Chain.advance_blocks chain 1000;
  let r, _ = Logic_resolve.resolve_slot chain proxy ~slot:(U256.of_int 9) in
  check_i "no history" 0 (List.length r.Logic_resolve.historical);
  check_b "few api calls for unchanged slot" true (r.Logic_resolve.api_calls <= 4)

(* Random upgrade histories with no value reuse: gaps between the
   writes, the blocks after the last, and a salt for the values. *)
let upgrade_histories =
  QCheck.(
    triple
      (list_of_size Gen.(int_range 0 8) (int_range 0 400))
      (int_range 0 400) (int_bound 0xffffff))

(* The chain such a history builds: a proxy whose slot 0 took write [i]
   after gap [i], then [tail] blocks.  Its values are distinct, non-zero,
   and in no fixed order by value. *)
let history_chain (gaps, tail, salt) =
  let chain = Chain.create () in
  let proxy = Chain.install_contract chain ~runtime:"\x00" () in
  let logic i = U256.of_int (((i * 0x9e37) lxor salt) + 1) in
  List.iteri
    (fun i gap ->
      Chain.advance_blocks chain gap;
      Chain.set_storage_direct chain proxy U256.zero (logic i))
    gaps;
  Chain.advance_blocks chain tail;
  (chain, proxy, logic)

(* Over random upgrade histories with no value reuse, [resolve_slot]'s
   history, ordered by the heights its own reads saw each value at, is
   the chain's recorded change list: every value written, oldest first.
   [current] is the last value written. *)
let qcheck_history_order =
  QCheck.Test.make ~name:"resolve_slot history follows the recorded changes"
    ~count:200 upgrade_histories
    (fun ((gaps, _, _) as history) ->
      let chain, proxy, logic = history_chain history in
      let slot = U256.zero in
      let changes =
        List.map
          (fun height ->
            Evm.Address.of_u256 (Chain.get_storage_at chain proxy slot ~height))
          (Chain.storage_change_heights chain proxy slot)
      in
      let last =
        match gaps with
        | [] -> None
        | _ -> Some (Evm.Address.of_u256 (logic (List.length gaps - 1)))
      in
      let r, _ = Logic_resolve.resolve_slot chain proxy ~slot in
      let hex = List.map Evm.Address.to_hex in
      if hex r.Logic_resolve.historical <> hex changes then
        QCheck.Test.fail_reportf "historical [%s], changes [%s]"
          (String.concat "; " (hex r.Logic_resolve.historical))
          (String.concat "; " (hex changes));
      Option.map Evm.Address.to_hex r.Logic_resolve.current
      = Option.map Evm.Address.to_hex last)

(* A record taken at one head replays to exactly the live resolution —
   current, history, upgrade count and archive calls — at a later head
   with no write in between, at the recording head itself, and at an
   earlier head above the last change (a rewind that reverted no
   write).  A replay makes no archive call: neither the chain's counter
   nor its per-method counts move. *)
let qcheck_replay_equals_live =
  QCheck.Test.make
    ~name:"a record replays to the live resolution at later and rewound heads"
    ~count:200
    (QCheck.pair upgrade_histories
       QCheck.(pair (int_range 0 400) (int_bound 1000)))
    (fun (history, (later, back)) ->
      let chain, proxy, _ = history_chain history in
      let slot = U256.zero in
      let recorded_at = Chain.height chain in
      let _, record = Logic_resolve.resolve_slot chain proxy ~slot in
      let show (r : Logic_resolve.resolution) =
        Printf.sprintf "current %s, historical [%s], %d calls, %d upgrades"
          (Option.fold ~none:"-" ~some:Evm.Address.to_hex r.Logic_resolve.current)
          (String.concat "; "
             (List.map Evm.Address.to_hex r.Logic_resolve.historical))
          r.Logic_resolve.api_calls r.Logic_resolve.upgrade_count
      in
      let replay_equals_live what =
        let head = Chain.height chain in
        let calls = Chain.api_call_count chain in
        let methods = Chain.method_call_counts chain in
        let replayed = Logic_resolve.replay record ~head in
        if Chain.api_call_count chain <> calls then
          QCheck.Test.fail_reportf "%s: the replay made archive calls" what;
        if Chain.method_call_counts chain <> methods then
          QCheck.Test.fail_reportf "%s: the replay sent requests" what;
        let live, _ = Logic_resolve.resolve_slot chain proxy ~slot in
        if replayed <> live then
          QCheck.Test.fail_reportf "%s (head %d, recorded at %d): replay %s, live %s"
            what head recorded_at (show replayed) (show live)
      in
      replay_equals_live "recording head";
      Chain.advance_blocks chain later;
      replay_equals_live "later head";
      (* A write in block [h] leaves the head at [h + 1]: a rewind to
         any head above the last write's block keeps every write. *)
      let kept =
        1 + List.fold_left max 0 (Chain.storage_change_heights chain proxy slot)
      in
      ignore
        (Chain.rewind_to chain
           ~height:(kept + (back * (recorded_at - kept) / 1000)));
      replay_equals_live "rewound head";
      true)

let test_resolve_minimal () =
  let chain = Chain.create () in
  let logic = deploy chain (Patterns.counter_logic ()) in
  let proxy_addr =
    Chain.install_contract chain ~runtime:(Patterns.eip1167_runtime logic) ()
  in
  let r = Logic_resolve.resolve chain proxy_addr Proxy_detect.Hardcoded in
  Alcotest.(check (list string))
    "single fixed logic"
    [ Evm.Address.to_hex logic ]
    (List.map Evm.Address.to_hex r.Logic_resolve.historical);
  check_i "no api calls" 0 r.Logic_resolve.api_calls

(* ------------------------------------------------------------------ *)
(* Standard classification                                             *)
(* ------------------------------------------------------------------ *)

let test_standard_classification () =
  let logic = Evm.Address.of_hex "0x1111111111111111111111111111111111111111" in
  check_s "eip1167" "EIP-1167"
    (Standard_classify.to_string
       (Standard_classify.classify
          ~code:(Patterns.eip1167_runtime logic)
          Proxy_detect.Hardcoded));
  check_s "eip1822" "EIP-1822"
    (Standard_classify.to_string
       (Standard_classify.classify ~code:""
          (Proxy_detect.Storage_slot Patterns.eip1822_proxiable_slot)));
  check_s "eip1967" "EIP-1967"
    (Standard_classify.to_string
       (Standard_classify.classify ~code:""
          (Proxy_detect.Storage_slot Patterns.eip1967_implementation_slot)));
  check_s "others" "Others"
    (Standard_classify.to_string
       (Standard_classify.classify ~code:"" (Proxy_detect.Storage_slot U256.one)))

(* ------------------------------------------------------------------ *)
(* Function collisions                                                 *)
(* ------------------------------------------------------------------ *)

let test_func_collision_source_source () =
  let collisions =
    Func_collision.detect
      ~proxy:(Func_collision.Source (Patterns.honeypot_proxy ()))
      ~logic:(Func_collision.Source (Patterns.honeypot_logic ()))
  in
  match collisions with
  | [ c ] ->
      check_s "selector" "0xdf4a3106" (Hexutil.to_hex c.Func_collision.selector);
      check_b "proxy sig" true
        (c.Func_collision.proxy_signature = Some "impl_LUsXCWD2AKCc()");
      check_b "logic sig" true
        (c.Func_collision.logic_signature = Some "free_ether_withdrawal()")
  | l -> Alcotest.failf "expected 1 collision, got %d" (List.length l)

let test_func_collision_bytecode_bytecode () =
  (* The paper's novel capability: same collision from bare bytecode. *)
  let collisions =
    Func_collision.detect
      ~proxy:(Func_collision.Bytecode (Codegen.runtime (Patterns.honeypot_proxy ())))
      ~logic:(Func_collision.Bytecode (Codegen.runtime (Patterns.honeypot_logic ())))
  in
  match collisions with
  | [ c ] ->
      check_s "selector recovered from bytecode" "0xdf4a3106"
        (Hexutil.to_hex c.Func_collision.selector);
      check_b "no names available" true (c.Func_collision.proxy_signature = None)
  | l -> Alcotest.failf "expected 1 collision, got %d" (List.length l)

let test_func_collision_mixed () =
  let collisions =
    Func_collision.detect
      ~proxy:(Func_collision.Source (Patterns.honeypot_proxy ()))
      ~logic:(Func_collision.Bytecode (Codegen.runtime (Patterns.honeypot_logic ())))
  in
  check_i "mixed-mode detection" 1 (List.length collisions)

let test_func_no_collision () =
  check_b "counter vs proxy clean" false
    (Func_collision.has_collision
       ~proxy:(Func_collision.Source (Patterns.slot_var_proxy ()))
       ~logic:(Func_collision.Source (Patterns.counter_logic ())))

let test_honeypot_classifier_source () =
  let v =
    Honeypot.classify
      ~proxy:(Func_collision.Source (Patterns.honeypot_proxy ()))
      ~logic:(Func_collision.Source (Patterns.honeypot_logic ()))
  in
  check_b "classified as honeypot" true v.Honeypot.is_honeypot;
  (match v.Honeypot.evidence with
  | [ e ] ->
      check_s "selector" "0xdf4a3106" (Hexutil.to_hex e.Honeypot.e_selector);
      check_b "bait" true e.Honeypot.e_logic_pays_caller;
      check_b "trap" true e.Honeypot.e_proxy_moves_assets
  | _ -> Alcotest.fail "expected one evidence record");
  (* The benign ownable collision (proxyType() etc.) is NOT a honeypot. *)
  let benign_proxy =
    Ast.contract "P"
      ~vars:[ { Ast.v_name = "logic"; v_ty = Ast.T_address } ]
      ~funcs:
        [
          Ast.func "proxyType" ~mutability:Ast.View ~returns:(Ast.T_uint 256)
            [ Ast.Return_value (Ast.Const (U256.of_int 2)) ];
        ]
      ~fallback:(Some [ Ast.Delegate_forward (Ast.To_var "logic") ])
  in
  let benign_logic =
    Ast.contract "L"
      ~funcs:
        [
          Ast.func "proxyType" ~mutability:Ast.View ~returns:(Ast.T_uint 256)
            [ Ast.Return_value (Ast.Const (U256.of_int 2)) ];
        ]
  in
  let v =
    Honeypot.classify
      ~proxy:(Func_collision.Source benign_proxy)
      ~logic:(Func_collision.Source benign_logic)
  in
  check_b "benign collision not a honeypot" false v.Honeypot.is_honeypot;
  check_i "evidence still recorded" 1 (List.length v.Honeypot.evidence)

let test_honeypot_classifier_bytecode () =
  (* The hidden case: both sides bytecode-only. *)
  let v =
    Honeypot.classify
      ~proxy:(Func_collision.Bytecode (Codegen.runtime (Patterns.honeypot_proxy ())))
      ~logic:(Func_collision.Bytecode (Codegen.runtime (Patterns.honeypot_logic ())))
  in
  check_b "bytecode-only honeypot classified" true v.Honeypot.is_honeypot

let test_dispatcher_table_targets () =
  let c = Patterns.counter_logic () in
  let code = Codegen.runtime c in
  let table = Selector_extract.dispatcher_table code in
  check_i "three entries" 3 (List.length table);
  (* Every recovered target must be a valid JUMPDEST. *)
  let dests = Evm.Disasm.jumpdests code in
  List.iter
    (fun (_, target) ->
      check_b "target is a jumpdest" true (List.mem target dests))
    table

(* ------------------------------------------------------------------ *)
(* Storage collisions                                                  *)
(* ------------------------------------------------------------------ *)

let test_storage_collision_source () =
  let collisions =
    Storage_collision.detect
      ~proxy:(Storage_collision.Source (Patterns.audius_proxy ()))
      ~logic:(Storage_collision.Source (Patterns.audius_logic ()))
  in
  check_b "found" true (collisions <> []);
  check_b "slot 0" true
    (List.exists
       (fun c ->
         Storage_access.slot_id_compare c.Storage_collision.slot
           (Storage_access.Fixed U256.zero)
         = 0)
       collisions);
  check_b "sensitive (owner guards caller)" true
    (List.exists (fun c -> c.Storage_collision.sensitive) collisions)

let test_storage_collision_bytecode () =
  let collisions =
    Storage_collision.detect
      ~proxy:(Storage_collision.Bytecode (Codegen.runtime (Patterns.audius_proxy ())))
      ~logic:(Storage_collision.Bytecode (Codegen.runtime (Patterns.audius_logic ())))
  in
  check_b "found from bytecode alone" true (collisions <> [])

let test_storage_padding_not_flagged () =
  (* The USCHunt false positive: unused padding variables must not count. *)
  check_b "padding pair clean" false
    (Storage_collision.has_collision
       ~proxy:(Storage_collision.Source (Patterns.padding_proxy ()))
       ~logic:(Storage_collision.Source (Patterns.padding_logic ())))

let test_storage_no_collision_on_aligned_pair () =
  (* EIP-1967 proxy keeps state in keccak-derived slots: no overlap with a
     logic contract using slot 0. *)
  check_b "aligned pair clean" false
    (Storage_collision.has_collision
       ~proxy:(Storage_collision.Source (Patterns.eip1967_proxy ()))
       ~logic:(Storage_collision.Source (Patterns.counter_logic ())))

let test_storage_exploit_verification () =
  let chain = Chain.create () in
  let logic = deploy chain (Patterns.audius_logic ()) in
  let proxy = deploy chain ~from:alice (Patterns.audius_proxy ()) in
  Chain.set_storage_direct chain proxy U256.one (Evm.Address.to_u256 logic);
  let collisions =
    Storage_collision.detect
      ~proxy:(Storage_collision.Source (Patterns.audius_proxy ()))
      ~logic:(Storage_collision.Source (Patterns.audius_logic ()))
  in
  let verified =
    Storage_collision.verify ~chain ~proxy_address:proxy ~logic_address:logic
      collisions
  in
  check_b "audius exploit verified by execution" true
    (List.exists (fun c -> c.Storage_collision.verified) verified);
  (* Verification must not leave residue. *)
  let host = Chain.host_at_head chain in
  check_u "owner untouched after verification"
    (Evm.Address.to_u256 alice)
    (U256.logand
       (host.Evm.Host.get_storage proxy U256.zero)
       (U256.pred (U256.shift_left U256.one 160)))

(* ------------------------------------------------------------------ *)
(* Upgrade authority                                                   *)
(* ------------------------------------------------------------------ *)

let test_upgrade_auth_gated () =
  let chain = Chain.create () in
  let logic = deploy chain (Patterns.counter_logic ()) in
  let proxy = deploy chain ~from:alice (Patterns.slot_var_proxy ()) in
  Chain.set_storage_direct chain proxy U256.one (Evm.Address.to_u256 logic);
  (* setLogic requires msg.sender == owner (= alice); mallory can't. *)
  match
    Upgrade_auth.analyze chain proxy (Proxy_detect.Storage_slot U256.one)
  with
  | Upgrade_auth.Gated -> ()
  | a -> Alcotest.failf "expected gated, got %s" (Upgrade_auth.to_string a)

let test_upgrade_auth_open () =
  let chain = Chain.create () in
  (* An UNPROTECTED setLogic: no owner check. *)
  let open_proxy =
    Ast.contract "OpenProxy"
      ~vars:
        [
          { Ast.v_name = "owner"; v_ty = Ast.T_address };
          { Ast.v_name = "logic"; v_ty = Ast.T_address };
        ]
      ~funcs:
        [
          Ast.func "setLogic"
            ~params:[ { Ast.p_name = "l"; p_ty = Ast.T_address } ]
            [ Ast.Store ("logic", Ast.Param 0) ];
        ]
      ~fallback:(Some [ Ast.Delegate_forward (Ast.To_var "logic") ])
  in
  let logic = deploy chain (Patterns.counter_logic ()) in
  let proxy = deploy chain ~from:alice open_proxy in
  Chain.set_storage_direct chain proxy U256.one (Evm.Address.to_u256 logic);
  (match
     Upgrade_auth.analyze chain proxy (Proxy_detect.Storage_slot U256.one)
   with
  | Upgrade_auth.Open_to_anyone sel ->
      check_s "the unprotected setter" 
        (Hexutil.to_hex (Keccak.selector "setLogic(address)"))
        (Hexutil.to_hex sel)
  | a -> Alcotest.failf "expected open, got %s" (Upgrade_auth.to_string a));
  (* The probe must not leave residue. *)
  let host = Chain.host_at_head chain in
  check_u "logic slot unchanged after analysis" (Evm.Address.to_u256 logic)
    (host.Evm.Host.get_storage proxy U256.one)

let test_upgrade_auth_immutable () =
  let chain = Chain.create () in
  let logic = deploy chain (Patterns.counter_logic ()) in
  let proxy =
    Chain.install_contract chain ~runtime:(Patterns.eip1167_runtime logic) ()
  in
  check_s "minimal proxy immutable" "immutable (hard-coded logic)"
    (Upgrade_auth.to_string
       (Upgrade_auth.analyze chain proxy Proxy_detect.Hardcoded))

(* ------------------------------------------------------------------ *)
(* Storage access profiling                                            *)
(* ------------------------------------------------------------------ *)

let test_profile_widths () =
  let code = Codegen.runtime (Patterns.audius_logic ()) in
  let accesses = Storage_access.profile code in
  let has ~kind ~offset ~width =
    List.exists
      (fun (a : Storage_access.access) ->
        a.Storage_access.a_kind = kind
        && a.Storage_access.a_offset = offset
        && a.Storage_access.a_width = width
        && Storage_access.slot_id_compare a.Storage_access.a_slot
             (Storage_access.Fixed U256.zero)
           = 0)
      accesses
  in
  check_b "bool write at offset 0" true
    (has ~kind:Storage_access.Write ~offset:0 ~width:1);
  check_b "bool write at offset 1" true
    (has ~kind:Storage_access.Write ~offset:1 ~width:1);
  check_b "address-wide raw write" true
    (has ~kind:Storage_access.Write ~offset:0 ~width:20);
  check_b "bool read at offset 1" true
    (has ~kind:Storage_access.Read ~offset:1 ~width:1)

let test_profile_guard_flag () =
  let code = Codegen.runtime (Patterns.audius_proxy ()) in
  let accesses = Storage_access.profile code in
  check_b "owner read guards caller" true
    (List.exists
       (fun (a : Storage_access.access) ->
         a.Storage_access.a_guards_caller
         && Storage_access.slot_id_compare a.Storage_access.a_slot
              (Storage_access.Fixed U256.zero)
            = 0)
       accesses)

let test_profile_mapping () =
  let code = Codegen.runtime (Patterns.erc20ish_logic ()) in
  let accesses = Storage_access.profile code in
  check_b "mapping access at base slot 1" true
    (List.exists
       (fun (a : Storage_access.access) ->
         Storage_access.slot_id_compare a.Storage_access.a_slot
           (Storage_access.Mapping U256.one)
         = 0)
       accesses)

let test_findings_report () =
  let chain = Chain.create () in
  let hp_logic = deploy chain (Patterns.honeypot_logic ()) in
  let hp_proxy = deploy chain ~from:mallory (Patterns.honeypot_proxy ()) in
  Chain.set_storage_direct chain hp_proxy U256.one (Evm.Address.to_u256 hp_logic);
  let au_logic = deploy chain (Patterns.audius_logic ()) in
  let au_proxy = deploy chain ~from:alice (Patterns.audius_proxy ()) in
  Chain.set_storage_direct chain au_proxy U256.one (Evm.Address.to_u256 au_logic);
  let report = Analyzer.analyze ~chain ~source:(fun _ -> None) () in
  let findings = Findings.of_report report in
  check_b "nonempty" true (findings <> []);
  (* Verified Audius exploit is critical; honeypot is high; sorted order. *)
  (match findings with
  | first :: _ -> check_b "critical first" true (first.Findings.f_severity = Findings.Critical)
  | [] -> ());
  check_b "has a critical storage finding" true
    (List.exists
       (fun f ->
         f.Findings.f_severity = Findings.Critical
         && Evm.Address.equal f.Findings.f_proxy au_proxy)
       findings);
  check_b "has a high honeypot finding" true
    (List.exists
       (fun f ->
         f.Findings.f_severity = Findings.High
         && Evm.Address.equal f.Findings.f_proxy hp_proxy)
       findings);
  let text = Findings.render findings in
  check_b "render mentions CRITICAL" true
    (let rec has i =
       i + 8 <= String.length text && (String.sub text i 8 = "CRITICAL" || has (i + 1))
     in
     has 0);
  check_b "json serializes" true
    (String.length (Report.Json.to_string (Findings.to_json findings)) > 100)

let test_profile_cross_block () =
  (* The slot constant is pushed in one block; the SLOAD happens after a
     resolved jump — only stack propagation across CFG edges sees it. *)
  let code =
    Evm.Asm.assemble
      [
        Evm.Asm.Push_int 5;
        (* the slot, left on the stack across the jump *)
        Evm.Asm.Push_label "reader";
        Evm.Asm.Op Evm.Opcode.JUMP;
        Evm.Asm.Jumpdest "reader";
        Evm.Asm.Op Evm.Opcode.SLOAD;
        Evm.Asm.Op Evm.Opcode.POP;
        Evm.Asm.Op Evm.Opcode.STOP;
      ]
  in
  let accesses = Storage_access.profile code in
  check_b "read of slot 5 found across blocks" true
    (List.exists
       (fun (a : Storage_access.access) ->
         a.Storage_access.a_kind = Storage_access.Read
         && Storage_access.slot_id_compare a.Storage_access.a_slot
              (Storage_access.Fixed (U256.of_int 5))
            = 0)
       accesses)

(* ------------------------------------------------------------------ *)
(* Dedup                                                               *)
(* ------------------------------------------------------------------ *)

let test_dedup_grouping () =
  let chain = Chain.create () in
  let code = Codegen.runtime (Patterns.counter_logic ()) in
  let a1 = Chain.install_contract chain ~runtime:code () in
  let a2 = Chain.install_contract chain ~runtime:code () in
  let b = Chain.install_contract chain ~runtime:"\x00" () in
  let groups =
    Dedup.group_by_code_hash ~hash_of:(Chain.code_hash chain) [ a1; a2; b ]
  in
  check_i "two unique codes" 2 (List.length groups);
  Alcotest.(check (list int))
    "distribution" [ 2; 1 ]
    (Dedup.duplicate_distribution ~hash_of:(Chain.code_hash chain)
       [ a1; a2; b ])

(* A severity's printed name reads back in any letter case, and no other
   string names a severity. *)
let test_severity_names () =
  let name = Alcotest.(option string) in
  let show = Option.map Findings.severity_to_string in
  List.iter
    (fun (sev, mixed) ->
      let s = Findings.severity_to_string sev in
      List.iter
        (fun spelling ->
          Alcotest.check name spelling
            (Some s)
            (show (Findings.severity_of_string spelling)))
        [ s; String.lowercase_ascii s; mixed ])
    [
      (Findings.Critical, "CriTical");
      (Findings.High, "hIGH");
      (Findings.Medium, "Medium");
      (Findings.Info, "iNfO");
    ];
  List.iter
    (fun other ->
      Alcotest.check name (Printf.sprintf "%S" other) None
        (show (Findings.severity_of_string other)))
    [ ""; "crit"; "critical "; " high"; "urgent"; "INFO2"; "med"; "low" ]

(* ------------------------------------------------------------------ *)
(* One-shot analysis                                                  *)
(* ------------------------------------------------------------------ *)

let test_pipeline_end_to_end () =
  let chain = Chain.create () in
  (* Population: honeypot pair, audius pair, a minimal proxy, a library
     caller, a plain contract, and a clone of the plain contract. *)
  let hp_logic = deploy chain (Patterns.honeypot_logic ()) in
  let hp_proxy = deploy chain ~from:mallory (Patterns.honeypot_proxy ()) in
  Chain.set_storage_direct chain hp_proxy U256.one (Evm.Address.to_u256 hp_logic);
  let au_logic = deploy chain (Patterns.audius_logic ()) in
  let au_proxy = deploy chain ~from:alice (Patterns.audius_proxy ()) in
  Chain.set_storage_direct chain au_proxy U256.one (Evm.Address.to_u256 au_logic);
  let counter = deploy chain (Patterns.counter_logic ()) in
  let minimal =
    Chain.install_contract chain ~runtime:(Patterns.eip1167_runtime counter) ()
  in
  let lib_user = deploy chain (Patterns.library_caller ~lib:counter) in
  let plain_code = Codegen.runtime (Patterns.erc20ish_logic ()) in
  let plain1 = Chain.install_contract chain ~runtime:plain_code () in
  let plain2 = Chain.install_contract chain ~runtime:plain_code () in
  ignore (lib_user, plain1, plain2);
  (* Source registry: only the audius pair is "verified". *)
  let sources =
    [
      (au_proxy, Patterns.audius_proxy ());
      (au_logic, Patterns.audius_logic ());
    ]
  in
  let source addr =
    List.find_map
      (fun (a, c) -> if Evm.Address.equal a addr then Some c else None)
      sources
  in
  let report = Analyzer.analyze ~chain ~source () in
  let stats = report.Analysis.stats in
  check_i "analyzed all" 9 stats.Analysis.s_analyzed;
  (* Proxies: honeypot, audius, minimal. Library caller and plain ones no. *)
  check_i "three proxies" 3 stats.Analysis.s_proxies;
  check_i "clone dedup hit" 1 stats.Analysis.s_dedup_hits;
  check_b "function collision found" true (stats.Analysis.s_func_colliding_pairs >= 1);
  check_b "storage collision found" true (stats.Analysis.s_storage_colliding_pairs >= 1);
  check_b "audius verified" true (stats.Analysis.s_verified_storage_pairs >= 1);
  (* Per-contract checks. *)
  let find addr =
    List.find
      (fun r -> Evm.Address.equal r.Analysis.r_address addr)
      report.Analysis.contracts
  in
  check_b "minimal classified 1167" true
    ((find minimal).Analysis.r_standard = Some Standard_classify.Eip1167);
  check_b "honeypot has func collision pair" true
    (List.exists
       (fun p -> p.Analysis.p_func_collisions <> [])
       (find hp_proxy).Analysis.r_pairs);
  check_b "honeypot pair is bytecode-bytecode" true
    (List.for_all
       (fun p -> p.Analysis.p_method = Analysis.Bytecode_bytecode)
       (find hp_proxy).Analysis.r_pairs);
  check_b "audius pair is source-source" true
    (List.for_all
       (fun p -> p.Analysis.p_method = Analysis.Source_source)
       (find au_proxy).Analysis.r_pairs);
  check_b "library caller is not a proxy" true
    (not (Analysis.is_proxy_report (find lib_user)))

let suite =
  [
    Alcotest.test_case "dispatcher extraction" `Quick test_dispatcher_extraction;
    Alcotest.test_case "naive push4 FPs rejected" `Quick test_naive_push4_false_positives;
    Alcotest.test_case "probe avoids push4" `Quick test_probe_avoids_all_push4;
    Alcotest.test_case "detect minimal proxy" `Quick test_detect_minimal_proxy;
    Alcotest.test_case "detect slot proxy" `Quick test_detect_slot_proxy_on_chain;
    Alcotest.test_case "detect eip1967 slot" `Quick test_detect_eip1967_slot;
    Alcotest.test_case "prefilter non-proxy" `Quick test_detect_non_proxy_no_delegatecall;
    Alcotest.test_case "library caller excluded" `Quick test_detect_library_caller_excluded;
    Alcotest.test_case "diamond missed (8.1)" `Quick test_detect_diamond_missed;
    Alcotest.test_case "hidden contract detected" `Quick test_detect_hidden_contract;
    Alcotest.test_case "beacon proxy (computed target)" `Quick test_detect_beacon_proxy;
    Alcotest.test_case "diamond probe extension (8.2)" `Quick test_diamond_probe_extension;
    Alcotest.test_case "diamond probe no FP" `Quick test_diamond_probe_no_false_positive;
    Alcotest.test_case "pipeline diamond extension" `Quick test_pipeline_diamond_extension;
    Alcotest.test_case "probe leaves no residue" `Quick test_detection_does_not_mutate_state;
    Alcotest.test_case "algorithm1 history" `Quick test_algorithm1_recovers_history;
    Alcotest.test_case "algorithm1 static slot" `Quick test_algorithm1_static_slot;
    Alcotest.test_case "resolve minimal" `Quick test_resolve_minimal;
    Alcotest.test_case "standard classification" `Quick test_standard_classification;
    Alcotest.test_case "func collision source" `Quick test_func_collision_source_source;
    Alcotest.test_case "func collision bytecode" `Quick test_func_collision_bytecode_bytecode;
    Alcotest.test_case "func collision mixed" `Quick test_func_collision_mixed;
    Alcotest.test_case "func no collision" `Quick test_func_no_collision;
    Alcotest.test_case "honeypot classifier source" `Quick test_honeypot_classifier_source;
    Alcotest.test_case "honeypot classifier bytecode" `Quick test_honeypot_classifier_bytecode;
    Alcotest.test_case "dispatcher table" `Quick test_dispatcher_table_targets;
    Alcotest.test_case "storage collision source" `Quick test_storage_collision_source;
    Alcotest.test_case "storage collision bytecode" `Quick test_storage_collision_bytecode;
    Alcotest.test_case "storage padding clean" `Quick test_storage_padding_not_flagged;
    Alcotest.test_case "storage aligned pair clean" `Quick
      test_storage_no_collision_on_aligned_pair;
    Alcotest.test_case "storage exploit verification" `Quick
      test_storage_exploit_verification;
    Alcotest.test_case "upgrade auth gated" `Quick test_upgrade_auth_gated;
    Alcotest.test_case "upgrade auth open" `Quick test_upgrade_auth_open;
    Alcotest.test_case "upgrade auth immutable" `Quick test_upgrade_auth_immutable;
    Alcotest.test_case "profile widths" `Quick test_profile_widths;
    Alcotest.test_case "profile guard flag" `Quick test_profile_guard_flag;
    Alcotest.test_case "profile mapping" `Quick test_profile_mapping;
    Alcotest.test_case "profile cross-block" `Quick test_profile_cross_block;
    Alcotest.test_case "dedup grouping" `Quick test_dedup_grouping;
    Alcotest.test_case "findings report" `Quick test_findings_report;
    Alcotest.test_case "pipeline end to end" `Quick test_pipeline_end_to_end;
    QCheck_alcotest.to_alcotest qcheck_history_order;
    QCheck_alcotest.to_alcotest qcheck_replay_equals_live;
    Alcotest.test_case "severity names read back in any case" `Quick
      test_severity_names;
  ]
