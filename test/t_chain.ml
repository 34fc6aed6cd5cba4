let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)
let u = Alcotest.testable U256.pp U256.equal
let check_u = Alcotest.check u
let alice = Evm.Address.of_hex "0x00000000000000000000000000000000000a11ce"
let slot0 = U256.zero

let stop_runtime = "\x00"

let test_install_and_meta () =
  let chain = Chain.create () in
  let a = Chain.install_contract chain ~runtime:stop_runtime () in
  let b = Chain.install_contract chain ~runtime:stop_runtime () in
  check_b "distinct addresses" false (Evm.Address.equal a b);
  check_i "two contracts" 2 (List.length (Chain.all_contracts chain));
  (match Chain.contract_meta chain a with
  | None -> Alcotest.fail "meta missing"
  | Some m ->
      check_i "deploy height" 0 m.Chain.cm_deploy_height;
      check_b "code hash" true
        (Chain.code_hash chain m.Chain.cm_address
        = Keccak.digest stop_runtime));
  check_b "code readable" true (Chain.code_at chain a = stop_runtime)

let test_storage_history () =
  let chain = Chain.create () in
  let a = Chain.install_contract chain ~runtime:stop_runtime () in
  (* Heights: install mined block 0; writes at heights 1, 2, 3. *)
  Chain.set_storage_direct chain a slot0 (U256.of_int 10);
  Chain.advance_blocks chain 5;
  Chain.set_storage_direct chain a slot0 (U256.of_int 20);
  Chain.advance_blocks chain 5;
  Chain.set_storage_direct chain a slot0 (U256.of_int 30);
  let h = Chain.height chain in
  check_u "latest" (U256.of_int 30) (Chain.get_storage_at chain a slot0 ~height:h);
  check_u "genesis" U256.zero (Chain.get_storage_at chain a slot0 ~height:0);
  check_u "mid value" (U256.of_int 10) (Chain.get_storage_at chain a slot0 ~height:2);
  check_u "second value" (U256.of_int 20) (Chain.get_storage_at chain a slot0 ~height:8);
  check_i "three changes" 3 (List.length (Chain.storage_change_heights chain a slot0))

let test_api_counter () =
  let chain = Chain.create () in
  let a = Chain.install_contract chain ~runtime:stop_runtime () in
  Chain.reset_api_call_count chain;
  ignore (Chain.get_storage_at chain a slot0 ~height:0);
  ignore (Chain.get_storage_at chain a slot0 ~height:0);
  check_i "counted" 2 (Chain.api_call_count chain);
  Chain.reset_api_call_count chain;
  check_i "reset" 0 (Chain.api_call_count chain)

let test_tx_records_and_index () =
  let chain = Chain.create () in
  (* Contract that stores 1 at slot 0 when called. *)
  let code =
    Evm.Asm.assemble
      [
        Evm.Asm.Push_int 1;
        Evm.Asm.Push_int 0;
        Evm.Asm.Op Evm.Opcode.SSTORE;
        Evm.Asm.Op Evm.Opcode.STOP;
      ]
  in
  let a = Chain.install_contract chain ~runtime:code () in
  check_b "no txs yet" false (Chain.has_transactions chain a);
  let r = Chain.call chain ~from:alice ~to_:a () in
  check_b "success" true (r.Chain.tx_status = Evm.Interp.Returned);
  check_b "indexed now" true (Chain.has_transactions chain a);
  check_i "global record" 1 (List.length (Chain.all_transactions chain));
  (* The storage write is visible in history at the tx height. *)
  check_u "write recorded" U256.one
    (Chain.get_storage_at chain a slot0 ~height:(Chain.height chain))

let test_reverted_tx_leaves_no_history () =
  let chain = Chain.create () in
  let code =
    Evm.Asm.assemble
      [
        Evm.Asm.Push_int 1;
        Evm.Asm.Push_int 0;
        Evm.Asm.Op Evm.Opcode.SSTORE;
        Evm.Asm.Push_int 0;
        Evm.Asm.Push_int 0;
        Evm.Asm.Op Evm.Opcode.REVERT;
      ]
  in
  let a = Chain.install_contract chain ~runtime:code () in
  let r = Chain.call chain ~from:alice ~to_:a () in
  check_b "reverted" true (r.Chain.tx_status = Evm.Interp.Reverted);
  check_u "no storage change" U256.zero
    (Chain.get_storage_at chain a slot0 ~height:(Chain.height chain));
  check_i "no change heights" 0
    (List.length (Chain.storage_change_heights chain a slot0))

let test_deploy_via_init_code () =
  let chain = Chain.create () in
  let init =
    Evm.Asm.assemble
      [
        Evm.Asm.Push_int 0;
        Evm.Asm.Push_int 0;
        Evm.Asm.Op Evm.Opcode.MSTORE8;
        Evm.Asm.Push_int 1;
        Evm.Asm.Push_int 0;
        Evm.Asm.Op Evm.Opcode.RETURN;
      ]
  in
  match Chain.deploy chain ~from:alice ~init_code:init () with
  | Error e -> Alcotest.failf "deploy failed: %s" e
  | Ok addr ->
      check_b "code installed" true (Chain.code_at chain addr = "\x00");
      check_b "meta present" true (Chain.contract_meta chain addr <> None)

let test_internal_call_indexing () =
  let chain = Chain.create () in
  let b = Chain.install_contract chain ~runtime:stop_runtime () in
  (* a delegatecalls b when called. *)
  let a_code =
    Evm.Asm.assemble
      [
        Evm.Asm.Push_int 0;
        Evm.Asm.Push_int 0;
        Evm.Asm.Push_int 0;
        Evm.Asm.Push_int 0;
        Evm.Asm.Push_u256 (Evm.Address.to_u256 b);
        Evm.Asm.Op Evm.Opcode.GAS;
        Evm.Asm.Op Evm.Opcode.DELEGATECALL;
        Evm.Asm.Op Evm.Opcode.POP;
        Evm.Asm.Op Evm.Opcode.STOP;
      ]
  in
  let a = Chain.install_contract chain ~runtime:a_code () in
  let r = Chain.call chain ~from:alice ~to_:a () in
  check_i "one internal call" 1 (List.length r.Chain.tx_internal_calls);
  (match r.Chain.tx_internal_calls with
  | [ ic ] ->
      check_b "kind" true (ic.Chain.ic_kind = Evm.Interp.Delegatecall);
      check_b "to b" true (Evm.Address.equal ic.Chain.ic_to b)
  | _ -> Alcotest.fail "internal calls");
  (* b participated in a transaction, so it now "has transactions". *)
  check_b "b indexed via internal call" true (Chain.has_transactions chain b)

let test_block_timestamps_advance () =
  let chain = Chain.create () in
  let code =
    Evm.Asm.assemble
      [
        Evm.Asm.Op Evm.Opcode.TIMESTAMP;
        Evm.Asm.Push_int 0;
        Evm.Asm.Op Evm.Opcode.MSTORE;
        Evm.Asm.Push_int 32;
        Evm.Asm.Push_int 0;
        Evm.Asm.Op Evm.Opcode.RETURN;
      ]
  in
  let a = Chain.install_contract chain ~runtime:code () in
  let read () =
    let r = Chain.call chain ~from:alice ~to_:a () in
    Evm.Abi.decode_uint r.Chain.tx_return_data
  in
  let t1 = read () in
  Chain.advance_blocks chain 100;
  let t2 = read () in
  (* 101 blocks elapsed between the two reads at 12 s each. *)
  check_u "12s per block" (U256.of_int (12 * 101)) (U256.sub t2 t1)

let test_height_advances () =
  let chain = Chain.create () in
  check_i "starts at 0" 0 (Chain.height chain);
  let _ = Chain.install_contract chain ~runtime:stop_runtime () in
  check_i "install mines" 1 (Chain.height chain);
  Chain.advance_blocks chain 10;
  check_i "advanced" 11 (Chain.height chain)

(* Events emitted during a transaction are recorded on the tx record. *)
let test_tx_logs_recorded () =
  let chain = Chain.create () in
  let token =
    match
      Chain.deploy chain ~from:alice
        ~init_code:(Minisol.Codegen.init_code (Minisol.Patterns.erc20ish_logic ()))
        ()
    with
    | Ok a -> a
    | Error e -> Alcotest.failf "deploy: %s" e
  in
  let r =
    Chain.call chain ~from:alice ~to_:token
      ~input:
        (Evm.Abi.encode_call ~signature:"mint(uint256)"
           [ Evm.Abi.Uint (U256.of_int 5) ])
      ()
  in
  check_b "mint ok" true (r.Chain.tx_status = Evm.Interp.Returned);
  check_i "one log" 1 (List.length r.Chain.tx_logs);
  match r.Chain.tx_logs with
  | [ log ] ->
      check_b "topic is the Transfer hash" true
        (log.Evm.Interp.topics
        = [ U256.of_bytes_be (Keccak.digest "Transfer(address,address,uint256)") ]);
      check_b "emitted by the token" true
        (Evm.Address.equal log.Evm.Interp.log_address token)
  | _ -> Alcotest.fail "log missing"

(* Algorithm 1 assumes logic addresses are never reused (4.3).  When a
   proxy downgrades back to an old logic (A -> B -> A), the endpoints of
   the whole range agree and the search can terminate early, missing B —
   the documented limitation, pinned here as expected behaviour. *)
let test_algorithm1_value_reuse_limitation () =
  let chain = Chain.create () in
  let proxy = Chain.install_contract chain ~runtime:stop_runtime () in
  let a = U256.of_int 0xA in
  let b = U256.of_int 0xB in
  Chain.set_storage_direct chain proxy slot0 a;
  Chain.advance_blocks chain 50;
  Chain.set_storage_direct chain proxy slot0 b;
  Chain.advance_blocks chain 50;
  Chain.set_storage_direct chain proxy slot0 a;
  Chain.advance_blocks chain 50;
  let values =
    Proxion.Logic_resolve.algorithm1 chain proxy ~slot:slot0 ~lower:2
      ~upper:(Chain.height chain)
  in
  (* Both endpoints of [2, head] hold A, so the search returns {A} and
     never sees B. *)
  check_b "endpoint-equal range hides the middle value" true
    (U256.Set.equal values (U256.Set.singleton a));
  (* Starting from genesis the endpoints differ (zero vs A), so the split
     recovers everything. *)
  let all =
    Proxion.Logic_resolve.algorithm1 chain proxy ~slot:slot0 ~lower:0
      ~upper:(Chain.height chain)
  in
  check_b "full-range search sees B" true (U256.Set.mem b all)

(* The JSON-RPC facade: hex conventions and historical storage reads. *)
let test_rpc_facade () =
  let chain = Chain.create () in
  let a = Chain.install_contract chain ~runtime:"\x00\x01\x02" () in
  Chain.set_storage_direct chain a slot0 (U256.of_int 0xbeef);
  Chain.advance_blocks chain 10;
  Chain.set_storage_direct chain a slot0 (U256.of_int 0xcafe);
  let call meth params =
    match Chain_rpc.call chain ~meth ~params with
    | Ok v -> v
    | Error e -> Alcotest.failf "%s failed: %s" meth (Chain_rpc.error_to_string e)
  in
  Alcotest.(check string) "chain id" "0x1" (call "eth_chainId" []);
  Alcotest.(check string) "block number"
    (U256.to_hex (U256.of_int (Chain.height chain)))
    (call "eth_blockNumber" []);
  Alcotest.(check string) "code" "0x000102"
    (call "eth_getCode" [ Evm.Address.to_hex a; "latest" ]);
  (* Historical storage read: before the second write the slot held 0xbeef. *)
  Alcotest.(check string) "storage latest"
    ("0x" ^ String.make 60 '0' ^ "cafe")
    (call "eth_getStorageAt" [ Evm.Address.to_hex a; "0x0"; "latest" ]);
  Alcotest.(check string) "storage historical"
    ("0x" ^ String.make 60 '0' ^ "beef")
    (call "eth_getStorageAt" [ Evm.Address.to_hex a; "0x0"; "0x5" ]);
  (* Errors. *)
  check_b "unknown method" true
    (match Chain_rpc.call chain ~meth:"eth_sendTransaction" ~params:[] with
    | Error (Chain_rpc.Unknown_method _) -> true
    | _ -> false);
  check_b "bad arity" true
    (match Chain_rpc.call chain ~meth:"eth_getCode" ~params:[] with
    | Error (Chain_rpc.Invalid_params _) -> true
    | _ -> false);
  check_b "block beyond head" true
    (match
       Chain_rpc.call chain ~meth:"eth_getStorageAt"
         ~params:[ Evm.Address.to_hex a; "0x0"; "0xffffff" ]
     with
    | Error (Chain_rpc.Invalid_params _) -> true
    | _ -> false);
  (* A quantity carries one "0x", as a node reads it. *)
  List.iter
    (fun (what, slot, block) ->
      check_b what true
        (match
           Chain_rpc.call chain ~meth:"eth_getStorageAt"
             ~params:[ Evm.Address.to_hex a; slot; block ]
         with
        | Error (Chain_rpc.Invalid_params _) -> true
        | _ -> false))
    [
      ("doubled prefix on the slot", "0x0x00", "latest");
      ("doubled prefix on the block", "0x0", "0x0x05");
    ];
  (* Historical tags on latest-only methods: a valid past height is a
     distinct, named, non-retryable error — not Invalid_params, and never
     classified transient (the resilient transport must not retry it). *)
  List.iter
    (fun (meth, params) ->
      match Chain_rpc.call chain ~meth ~params with
      | Error (Chain_rpc.Unsupported_height m) ->
          Alcotest.(check string)
            (meth ^ " unsupported-height names the method")
            meth m;
          check_b (meth ^ " unsupported-height is permanent") false
            (Chain_rpc.is_transient (Chain_rpc.Unsupported_height m));
          check_b (meth ^ " message names the method") true
            (let s =
               Chain_rpc.error_to_string (Chain_rpc.Unsupported_height m)
             in
             let rec contains i =
               i + String.length meth <= String.length s
               && (String.sub s i (String.length meth) = meth
                  || contains (i + 1))
             in
             contains 0)
      | Ok _ -> Alcotest.failf "%s served a historical height" meth
      | Error e ->
          Alcotest.failf "%s: expected Unsupported_height, got %s" meth
            (Chain_rpc.error_to_string e))
    [
      ("eth_getCode", [ Evm.Address.to_hex a; "0x5" ]);
      ("eth_getBalance", [ Evm.Address.to_hex a; "0x5" ]);
      ("eth_getTransactionCount", [ Evm.Address.to_hex a; "0x5" ]);
    ];
  (* The same height tag on the history-capable method still works. *)
  check_b "getStorageAt keeps serving history" true
    (Result.is_ok
       (Chain_rpc.call chain ~meth:"eth_getStorageAt"
          ~params:[ Evm.Address.to_hex a; "0x0"; "0x5" ]))

let test_intrinsic_gas () =
  let chain = Chain.create () in
  let a = Chain.install_contract chain ~runtime:"\x00" () in
  (* Empty calldata: exactly the 21000 base (the STOP contract runs free). *)
  let r0 = Chain.call chain ~from:alice ~to_:a () in
  check_i "base cost" 21_000 r0.Chain.tx_gas_used;
  (* Calldata bytes are charged 16 (non-zero) / 4 (zero). *)
  let r1 = Chain.call chain ~from:alice ~to_:a ~input:"\xff\x00" () in
  check_i "data bytes" (21_000 + 16 + 4) r1.Chain.tx_gas_used;
  (* Creations carry the 32000 surcharge on top. *)
  let init =
    Evm.Asm.assemble [ Evm.Asm.Push_int 0; Evm.Asm.Push_int 0; Evm.Asm.Op Evm.Opcode.RETURN ]
  in
  (match Chain.deploy chain ~from:alice ~init_code:init () with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "deploy: %s" e);
  match Chain.all_transactions chain with
  | txs -> (
      match List.rev txs with
      | last :: _ ->
          check_b "creation cost includes surcharge" true
            (last.Chain.tx_gas_used > 21_000 + 32_000)
      | [] -> Alcotest.fail "no txs")

let test_rpc_eth_call () =
  let chain = Chain.create () in
  let token =
    match
      Chain.deploy chain ~from:alice
        ~init_code:(Minisol.Codegen.init_code (Minisol.Patterns.counter_logic ()))
        ()
    with
    | Ok a -> a
    | Error e -> Alcotest.failf "deploy: %s" e
  in
  ignore
    (Chain.call chain ~from:alice ~to_:token
       ~input:
         (Evm.Abi.encode_call ~signature:"setCount(uint256)"
            [ Evm.Abi.Uint (U256.of_int 77) ])
       ());
  let data = Hexutil.to_hex (Evm.Abi.encode_call ~signature:"count()" []) in
  (match
     Chain_rpc.call chain ~meth:"eth_call"
       ~params:[ Evm.Address.to_hex token; data; "latest" ]
   with
  | Ok ret ->
      check_u "count read via eth_call" (U256.of_int 77)
        (U256.of_hex ret)
  | Error e -> Alcotest.failf "eth_call: %s" (Chain_rpc.error_to_string e));
  (* eth_call leaves no transaction behind. *)
  check_i "no extra tx" 2 (List.length (Chain.all_transactions chain))

(* ------------------------------------------------------------------ *)
(* Code hashes (EXTCODEHASH-style accessor)                             *)
(* ------------------------------------------------------------------ *)

module Asm = Evm.Asm
module Op = Evm.Opcode

(* Init code returning [runtime] (a few bytes: the whole init must fit
   one 32-byte word when a factory embeds it). *)
let init_returning runtime =
  let n = String.length runtime in
  Asm.assemble
    [
      Asm.Push runtime;
      Asm.Push_int 0;
      Asm.Op Op.MSTORE;
      Asm.Push_int n;
      Asm.Push_int (32 - n);
      Asm.Op Op.RETURN;
    ]

(* SSTORE [k] at slot 0: each [k] is a distinct runtime. *)
let storing_runtime k =
  Asm.assemble
    [ Asm.Push_int k; Asm.Push_int 0; Asm.Op Op.SSTORE; Asm.Op Op.STOP ]

let selfdestruct_runtime =
  Asm.assemble [ Asm.Op Op.CALLER; Asm.Op Op.SELFDESTRUCT ]

(* Init code that CREATEs and then CREATE2s (with [salt]) [child_init],
   at most 31 bytes, and leaves a one-byte STOP runtime (memory byte 0). *)
let factory_init ~salt child_init =
  let n = String.length child_init in
  Asm.assemble
    [
      Asm.Push child_init;
      Asm.Push_int 0;
      Asm.Op Op.MSTORE;
      Asm.Push_int n;
      Asm.Push_int (32 - n);
      Asm.Push_int 0;
      Asm.Op Op.CREATE;
      Asm.Op Op.POP;
      Asm.Push_int salt;
      Asm.Push_int n;
      Asm.Push_int (32 - n);
      Asm.Push_int 0;
      Asm.Op Op.CREATE2;
      Asm.Op Op.POP;
      Asm.Push_int 1;
      Asm.Push_int 0;
      Asm.Op Op.RETURN;
    ]

let test_code_hash_once () =
  let chain = Chain.create () in
  let a = Chain.install_contract chain ~runtime:(storing_runtime 1) () in
  let view = Chain.worker_view chain in
  let expected = Keccak.digest (storing_runtime 1) in
  let before = Keccak.permutations () in
  check_b "chain" true (Chain.code_hash chain a = expected);
  check_b "worker view" true (Chain.code_hash view a = expected);
  check_i "reads hash nothing: the hash was taken at registration" 0
    (Keccak.permutations () - before);
  check_b "an address with no code" true
    (Chain.code_hash chain alice = Keccak.digest "")

(* Transitions the code-hash invariant must survive. *)
type step =
  | Install of int  (** Install a pool runtime. *)
  | Deploy_factory of int
      (** CREATE and CREATE2 children with a pool runtime. *)
  | Call of int
      (** Call a touched address (the SELFDESTRUCT runtime empties it). *)
  | Forget of int  (** [forget_contract] a touched address, then [compact]. *)
  | Rewind_remine of int
      (** Rewind 1-4 blocks, then install a runtime never used before: the
          installer nonce rewinds, so it can land on an orphaned address. *)

let runtime_pool =
  [| stop_runtime; storing_runtime 1; storing_runtime 2; selfdestruct_runtime |]

let print_step = function
  | Install r -> Printf.sprintf "Install %d" r
  | Deploy_factory r -> Printf.sprintf "Deploy_factory %d" r
  | Call k -> Printf.sprintf "Call %d" k
  | Forget k -> Printf.sprintf "Forget %d" k
  | Rewind_remine d -> Printf.sprintf "Rewind_remine %d" d

let steps_arb =
  let pool = Array.length runtime_pool - 1 in
  QCheck.make
    ~print:(fun steps -> String.concat "; " (List.map print_step steps))
    QCheck.Gen.(
      list_size (int_range 1 20)
        (frequency
           [
             (3, map (fun r -> Install r) (int_bound pool));
             (2, map (fun r -> Deploy_factory r) (int_bound pool));
             (3, map (fun k -> Call k) (int_bound 63));
             (1, map (fun k -> Forget k) (int_bound 63));
             (1, map (fun d -> Rewind_remine d) (int_range 1 4));
           ]))

(* [Chain.code_hash c a = Keccak.digest (Chain.code_at c a)] for every
   address ever touched, on the chain and on a worker view (also after a
   write to the view's overlay), after every step. *)
let qcheck_code_hash_invariant =
  QCheck.Test.make ~name:"code_hash = digest code_at after every transition"
    ~count:150 steps_arb (fun steps ->
      let chain = Chain.create () in
      let touched = ref [ alice ] in
      let touch a =
        if not (List.exists (Evm.Address.equal a) !touched) then
          touched := a :: !touched
      in
      let pick k = List.nth !touched (k mod List.length !touched) in
      let fresh = ref 0 in
      let check where c =
        List.iter
          (fun a ->
            if Chain.code_hash c a <> Keccak.digest (Chain.code_at c a) then
              QCheck.Test.fail_reportf "%s: stale code hash at %s" where
                (Evm.Address.to_hex a))
          !touched
      in
      List.iteri
        (fun i step ->
          (match step with
          | Install r ->
              touch (Chain.install_contract chain ~runtime:runtime_pool.(r) ())
          | Deploy_factory r -> (
              let init_code =
                factory_init ~salt:i (init_returning runtime_pool.(r))
              in
              let known = List.length (Chain.all_contracts chain) in
              match Chain.deploy chain ~from:alice ~init_code () with
              | Ok a ->
                  let added = List.length (Chain.all_contracts chain) - known in
                  if added <> 3 then
                    QCheck.Test.fail_reportf "factory registered %d contracts"
                      added;
                  touch a
              | Error e -> QCheck.Test.fail_reportf "factory deploy: %s" e)
          | Call k -> ignore (Chain.call chain ~from:alice ~to_:(pick k) ())
          | Forget k ->
              Chain.forget_contract chain (pick k);
              Chain.compact chain
          | Rewind_remine d ->
              let height = max 0 (Chain.height chain - d) in
              ignore (Chain.rewind_to chain ~height);
              incr fresh;
              touch
                (Chain.install_contract chain
                   ~runtime:(storing_runtime (100 + !fresh))
                   ()));
          List.iter
            (fun m -> touch m.Chain.cm_address)
            (Chain.all_contracts chain);
          let where = Printf.sprintf "after step %d (%s)" i (print_step step) in
          check where chain;
          let view = Chain.worker_view chain in
          check (where ^ ", worker view") view;
          (Chain.host_at_head view).Evm.Host.create_account (pick i)
            ~code:"\x5b\x00";
          check (where ^ ", worker view after an overlay write") view;
          check (where ^ ", chain after the view's write") chain)
        steps;
      true)

(* Pinned, and not mainnet's rule: [Host.selfdestruct] keeps the account's
   nonce (and storage), where pre-Cancun mainnet deletes the account.  So
   a CREATE2 redeploy at the address of a destroyed contract, the
   metamorphic-contract pattern, fails with a create collision. *)
let test_create2_redeploy_after_selfdestruct () =
  let chain = Chain.create () in
  (* The constructor stores 5 at slot 0, then returns the runtime. *)
  let init_code =
    Asm.assemble [ Asm.Push_int 5; Asm.Push_int 0; Asm.Op Op.SSTORE ]
    ^ init_returning selfdestruct_runtime
  in
  let create2 () =
    Evm.Interp.create ~salt:(Some (U256.of_int 7)) (Chain.host_at_head chain)
      ~caller:alice ~value:U256.zero ~init_code ~gas:1_000_000
  in
  let child =
    match (create2 ()).Evm.Interp.created with
    | Some a -> a
    | None -> Alcotest.fail "first CREATE2 created nothing"
  in
  check_b "child deployed" true
    (Chain.code_at chain child = selfdestruct_runtime);
  ignore (Chain.call chain ~from:alice ~to_:child ());
  check_b "SELFDESTRUCT empties the code" true (Chain.code_at chain child = "");
  check_b "code hash follows" true
    (Chain.code_hash chain child = Keccak.digest "");
  let host = Chain.host_at_head chain in
  check_i "the nonce is kept" 1 (host.Evm.Host.get_nonce child);
  check_u "the storage is kept" (U256.of_int 5)
    (host.Evm.Host.get_storage child slot0);
  match (create2 ()).Evm.Interp.status with
  | Evm.Interp.Failed e ->
      Alcotest.(check string)
        "redeploy refused"
        ("create collision at " ^ Evm.Address.to_hex child)
        (Evm.Interp.error_to_string e)
  | _ -> Alcotest.fail "the CREATE2 redeploy succeeded"

let suite =
  [
    Alcotest.test_case "install and meta" `Quick test_install_and_meta;
    Alcotest.test_case "rpc eth_call" `Quick test_rpc_eth_call;
    Alcotest.test_case "intrinsic gas" `Quick test_intrinsic_gas;
    Alcotest.test_case "json-rpc facade" `Quick test_rpc_facade;
    Alcotest.test_case "tx logs recorded" `Quick test_tx_logs_recorded;
    Alcotest.test_case "algorithm1 value-reuse limitation" `Quick
      test_algorithm1_value_reuse_limitation;
    Alcotest.test_case "storage history" `Quick test_storage_history;
    Alcotest.test_case "api counter" `Quick test_api_counter;
    Alcotest.test_case "tx records" `Quick test_tx_records_and_index;
    Alcotest.test_case "reverted tx history" `Quick test_reverted_tx_leaves_no_history;
    Alcotest.test_case "deploy via init" `Quick test_deploy_via_init_code;
    Alcotest.test_case "internal call indexing" `Quick test_internal_call_indexing;
    Alcotest.test_case "height advances" `Quick test_height_advances;
    Alcotest.test_case "block timestamps advance" `Quick test_block_timestamps_advance;
    Alcotest.test_case "code hash taken once at registration" `Quick
      test_code_hash_once;
    QCheck_alcotest.to_alcotest qcheck_code_hash_invariant;
    Alcotest.test_case "CREATE2 redeploy after SELFDESTRUCT collides" `Quick
      test_create2_redeploy_after_selfdestruct;
  ]
