module Address = Evm.Address
module Ast = Minisol.Ast
module Patterns = Minisol.Patterns
module Codegen = Minisol.Codegen
module Standard = Proxion.Standard_classify

type kind =
  | K_minimal_proxy
  | K_slot_proxy
  | K_eip1967_proxy
  | K_eip1822_proxy
  | K_beacon_proxy
  | K_ownable_clone
  | K_honeypot_proxy
  | K_audius_proxy
  | K_diamond_proxy
  | K_library_caller
  | K_plain
  | K_broken

let kind_to_string = function
  | K_minimal_proxy -> "minimal-proxy"
  | K_slot_proxy -> "slot-proxy"
  | K_eip1967_proxy -> "eip1967-proxy"
  | K_eip1822_proxy -> "eip1822-proxy"
  | K_beacon_proxy -> "beacon-proxy"
  | K_ownable_clone -> "ownable-clone"
  | K_honeypot_proxy -> "honeypot-proxy"
  | K_audius_proxy -> "audius-proxy"
  | K_diamond_proxy -> "diamond-proxy"
  | K_library_caller -> "library-caller"
  | K_plain -> "plain"
  | K_broken -> "broken"

type label = {
  l_address : Address.t;
  l_year : int;
  l_kind : kind;
  l_is_proxy : bool;
  l_standard : Standard.standard option;
  l_has_source : bool;
  l_has_tx : bool;
  l_logics : Address.t list;
  l_func_collision : bool;
  l_storage_collision : bool;
  l_upgrades : int;
}

type config = {
  total : int;
  seed : int;
  storage_boost : float;
  function_injection_share : float;
  broken_rate : float;
  chain_id : int;
}

let default_config =
  {
    total = 36_000;
    seed = 42;
    storage_boost = 100.0;
    function_injection_share = 0.013;
    broken_rate = 0.01;
    chain_id = 1;
  }

let quick_config = { default_config with total = 2_000; storage_boost = 400.0 }

type t = {
  chain : Chain.t;
  labels : label list;
  source_of : Proxion.Analysis.source_lookup;
  config : config;
}

(* ------------------------------------------------------------------ *)
(* Contract templates                                                   *)
(* ------------------------------------------------------------------ *)

(* A logic contract whose storage starts at a reserved offset, safe to sit
   behind a slot-variable proxy without colliding with owner/logic vars. *)
let offset_logic i =
  Ast.contract (Printf.sprintf "OffsetLogic%d" i)
    ~vars:
      [
        { Ast.v_name = "reserved0"; v_ty = Ast.T_uint 256 };
        { Ast.v_name = "reserved1"; v_ty = Ast.T_uint 256 };
        { Ast.v_name = "value"; v_ty = Ast.T_uint 256 };
      ]
    ~funcs:
      [
        Ast.func (Printf.sprintf "setValue%d" i)
          ~params:[ { Ast.p_name = "v"; p_ty = Ast.T_uint 256 } ]
          [ Ast.Store ("value", Ast.Param 0) ];
        Ast.func "getValue" ~mutability:Ast.View ~returns:(Ast.T_uint 256)
          [ Ast.Return_value (Ast.Load "value") ];
      ]

(* The OwnableDelegateProxy shape: three admin functions that also exist in
   the Wyvern-style logic, producing the mainnet's dominant function
   collision (§7.2). *)
let ownable_delegate_proxy () =
  Ast.contract "OwnableDelegateProxy"
    ~vars:
      [
        { Ast.v_name = "owner"; v_ty = Ast.T_address };
        { Ast.v_name = "logic"; v_ty = Ast.T_address };
      ]
    ~funcs:
      [
        Ast.func "proxyType" ~mutability:Ast.View ~returns:(Ast.T_uint 256)
          [ Ast.Return_value (Ast.Const (U256.of_int 2)) ];
        Ast.func "implementation" ~mutability:Ast.View ~returns:Ast.T_address
          [ Ast.Return_value (Ast.Load "logic") ];
        Ast.func "upgradeabilityOwner" ~mutability:Ast.View ~returns:Ast.T_address
          [ Ast.Return_value (Ast.Load "owner") ];
      ]
    ~fallback:(Some [ Ast.Delegate_forward (Ast.To_var "logic") ])

let wyvern_logic () =
  Ast.contract "WyvernRegistryLogic"
    ~vars:
      [
        { Ast.v_name = "pad0"; v_ty = Ast.T_uint 256 };
        { Ast.v_name = "pad1"; v_ty = Ast.T_uint 256 };
        { Ast.v_name = "registry"; v_ty = Ast.T_mapping (Ast.T_address, Ast.T_uint 256) };
      ]
    ~funcs:
      [
        Ast.func "proxyType" ~mutability:Ast.View ~returns:(Ast.T_uint 256)
          [ Ast.Return_value (Ast.Const (U256.of_int 2)) ];
        Ast.func "implementation" ~mutability:Ast.View ~returns:Ast.T_address
          [ Ast.Return_value (Ast.Const_addr Address.zero) ];
        Ast.func "upgradeabilityOwner" ~mutability:Ast.View ~returns:Ast.T_address
          [ Ast.Return_value (Ast.Const_addr Address.zero) ];
        Ast.func "register"
          [ Ast.Map_store ("registry", Ast.Caller, Ast.Const U256.one) ];
      ]

let slot_proxy_variant i =
  Patterns.slot_var_proxy
    ~extra_funcs:
      [ Ast.func (Printf.sprintf "ping%d" i) [ Ast.Stop ] ]
    ()

(* A mis-implemented upgradeable proxy: setLogic without the owner check —
   what the Upgrade_auth survey should flag as open to anyone. *)
let open_slot_proxy_variant i =
  Ast.contract (Printf.sprintf "OpenProxy%d" i)
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
        Ast.func (Printf.sprintf "tag%d" i) [ Ast.Stop ];
      ]
    ~fallback:(Some [ Ast.Delegate_forward (Ast.To_var "logic") ])

let eip1967_variant i =
  let base = Patterns.eip1967_proxy () in
  {
    base with
    Ast.c_funcs =
      base.Ast.c_funcs @ [ Ast.func (Printf.sprintf "mark%d" i) [ Ast.Stop ] ];
  }

let eip1822_variant i =
  let base = Patterns.eip1822_proxy () in
  {
    base with
    Ast.c_name = Printf.sprintf "UUPSProxy%d" i;
    Ast.c_funcs = [ Ast.func (Printf.sprintf "tag%d" i) [ Ast.Stop ] ];
  }

(* A fresh honeypot pair built from a mined selector collision. *)
let honeypot_variant (pair : Sig_mine.pair) =
  let strip_parens s = String.sub s 0 (String.length s - 2) in
  let proxy =
    Ast.contract "HiddenHoneypotProxy"
      ~vars:
        [
          { Ast.v_name = "owner"; v_ty = Ast.T_address };
          { Ast.v_name = "logic"; v_ty = Ast.T_address };
        ]
      ~funcs:
        [
          Ast.func (strip_parens pair.Sig_mine.sig_a)
            [
              Ast.Delegate_sig
                ( Ast.Const_addr Patterns.usdt_address,
                  "transfer(address,uint256)",
                  [ Ast.Load "owner"; Ast.Const (U256.of_int 1000) ] );
            ];
        ]
      ~fallback:(Some [ Ast.Delegate_forward (Ast.To_var "logic") ])
  in
  let logic =
    Ast.contract "EnticingLogic"
      ~funcs:
        [
          Ast.func (strip_parens pair.Sig_mine.sig_b) ~mutability:Ast.Payable
            [ Ast.Transfer (Ast.Caller, Ast.Const (U256.of_int 1_000_000)) ];
        ]
  in
  (proxy, logic)

let audius_variant i =
  let proxy =
    let base = Patterns.audius_proxy () in
    {
      base with
      Ast.c_name = Printf.sprintf "GovernanceProxy%d" i;
      Ast.c_funcs =
        base.Ast.c_funcs @ [ Ast.func (Printf.sprintf "ver%d" i) [ Ast.Stop ] ];
    }
  in
  (proxy, Patterns.audius_logic ())

(* Malformed bytecode: contains DELEGATECALL (passes the prefilter) but
   underflows the stack when executed — an emulation error. *)
let broken_bytecode i =
  Evm.Asm.assemble
    [
      Evm.Asm.Push_int (i land 0xff);
      Evm.Asm.Op Evm.Opcode.POP;
      Evm.Asm.Op Evm.Opcode.DELEGATECALL;
    ]

(* ------------------------------------------------------------------ *)
(* Generation                                                           *)
(* ------------------------------------------------------------------ *)

type gen_state = {
  g_chain : Chain.t;
  g_rng : Prng.t;
  g_sources : (Address.t, Ast.contract) Hashtbl.t;
  mutable g_labels : label list; (* since the last drain, reverse order *)
  mutable g_recorded : int; (* List.length g_labels, kept incrementally *)
  g_caller_pool : Address.t array;
}

let mk_caller i =
  Address.of_u256 (U256.of_bytes_be (Keccak.digest (Printf.sprintf "eoa-%d" i)))

let record st label =
  st.g_labels <- label :: st.g_labels;
  st.g_recorded <- st.g_recorded + 1

let register_source st addr ast = Hashtbl.replace st.g_sources addr ast

let install st runtime = Chain.install_contract st.g_chain ~runtime ()

let install_ast st ?(with_source = false) ast =
  let addr = install st (Codegen.runtime ast) in
  if with_source then register_source st addr ast;
  addr

(* Send one benign transaction to the contract so it "has transactions";
   for proxies the unknown selector exercises the forwarding fallback and
   leaves a DELEGATECALL in the history (what CRUSH scans for). *)
let give_tx st addr =
  let from = Prng.pick st.g_rng st.g_caller_pool in
  let input = Keccak.digest (Printf.sprintf "tx-%s" (Address.to_hex addr)) in
  let input = Hexutil.take 36 (input ^ input) in
  ignore (Chain.call st.g_chain ~from ~to_:addr ~input ())

let standard_of_kind = function
  | K_minimal_proxy -> Some Standard.Eip1167
  | K_eip1967_proxy -> Some Standard.Eip1967
  | K_eip1822_proxy -> Some Standard.Eip1822
  | K_slot_proxy | K_ownable_clone | K_honeypot_proxy | K_audius_proxy
  | K_diamond_proxy | K_beacon_proxy ->
      Some Standard.Other
  | K_library_caller | K_plain | K_broken -> None

let is_proxy_kind = function
  | K_minimal_proxy | K_slot_proxy | K_eip1967_proxy | K_eip1822_proxy
  | K_beacon_proxy | K_ownable_clone | K_honeypot_proxy | K_audius_proxy
  | K_diamond_proxy ->
      true
  | K_library_caller | K_plain | K_broken -> false

(* A streamed landscape: the generator is a resumable cursor over the same
   deployment sequence [generate] used to run eagerly, so specs can be
   drained batch-by-batch (and evicted after analysis) without the whole
   36M-contract landscape ever being resident.  [generate] below is a thin
   drain wrapper, which makes stream/materialized byte-identity hold by
   construction: both paths issue the identical PRNG and chain-call
   sequence. *)

type spec = { sp_label : label; sp_code : string; sp_pinned : bool }

type stream = {
  str_chain : Chain.t;
  str_config : config;
  str_state : gen_state;
  (* Addresses later deployments (or later analyses) still reference as
     delegate targets: shared logic pools, mega-clone targets, injected
     honeypot/audius logics.  Never evicted. *)
  str_pinned : (Address.t, unit) Hashtbl.t;
  str_step : unit -> bool; (* deploy one subject; false once exhausted *)
  mutable str_done : bool;
  mutable str_emitted : int;
}

let open_stream (config : config) =
  let block =
    {
      Evm.Host.default_block with
      Evm.Host.chain_id = U256.of_int config.chain_id;
    }
  in
  let chain = Chain.create ~block () in
  let rng = Prng.create config.seed in
  let st =
    {
      g_chain = chain;
      g_rng = rng;
      g_sources = Hashtbl.create 1024;
      g_labels = [];
      g_recorded = 0;
      g_caller_pool = Array.init 64 mk_caller;
    }
  in
  let pinned = Hashtbl.create 256 in
  let host = Chain.host_at_head chain in
  (* A token stands in for USDT at the honeypots' hard-coded address. *)
  Evm.Host.with_code host Patterns.usdt_address
    (Codegen.runtime (Patterns.erc20ish_logic ()));

  (* --- shared logic pools (lazily deployed, labels recorded) ---------- *)
  let year_ref = ref 2015 in
  let deploy_logic ?(with_source = false) ast =
    let addr = install_ast st ~with_source ast in
    Hashtbl.replace pinned addr ();
    record st
      {
        l_address = addr;
        l_year = !year_ref;
        l_kind = K_plain;
        l_is_proxy = false;
        l_standard = None;
        l_has_source = with_source;
        l_has_tx = false;
        l_logics = [];
        l_func_collision = false;
        l_storage_collision = false;
        l_upgrades = 0;
      };
    addr
  in
  (* Mega-clone targets. *)
  let cointool_logic = deploy_logic ~with_source:true (offset_logic 9001) in
  let xen_logic = deploy_logic ~with_source:true (offset_logic 9002) in
  let wyvern = deploy_logic ~with_source:true (wyvern_logic ()) in
  let cointool_bytes = Patterns.eip1167_runtime cointool_logic in
  let xen_bytes = Patterns.eip1167_runtime xen_logic in
  let ownable_ast = ownable_delegate_proxy () in
  let ownable_bytes = Codegen.runtime ownable_ast in
  (* Tail pools. *)
  let n_minimal_groups = 60 in
  let minimal_targets =
    Array.init n_minimal_groups (fun i ->
        lazy (deploy_logic ~with_source:(i mod 3 = 0) (offset_logic i)))
  in
  let minimal_group_weight i = 1.0 /. float_of_int (i + 2) in
  let n_variant_pool = 12 in
  let slot_variants =
    Array.init n_variant_pool (fun i ->
        (* One in six slot-proxy variants ships the unprotected setter. *)
        if i mod 6 = 5 then open_slot_proxy_variant i else slot_proxy_variant i)
  in
  let e1967_variants = Array.init n_variant_pool eip1967_variant in
  let e1822_variants = Array.init 4 eip1822_variant in
  let plain_pool =
    Array.init 24 (fun i ->
        if i mod 3 = 0 then Patterns.erc20ish_logic ()
        else if i mod 3 = 1 then Patterns.counter_logic ()
        else offset_logic (100 + i))
  in
  let aligned_logic =
    Array.init 16 (fun i -> lazy (deploy_logic ~with_source:(i mod 2 = 0) (offset_logic (200 + i))))
  in
  (* Honeypot collision pairs, mined up front. *)
  let total_func_mainnet =
    List.fold_left (fun acc (_, n) -> acc + n) 0 Spec.function_collisions_by_year
  in
  let injected_func_total =
    max 1
      (int_of_float
         (Float.round
            (float_of_int (Spec.scale config.total total_func_mainnet)
            *. config.function_injection_share)))
  in
  let mined = Array.of_list (Sig_mine.mine ~count:(injected_func_total + 4) ()) in
  let mined_idx = ref 0 in
  let next_mined () =
    let p = mined.(!mined_idx mod Array.length mined) in
    incr mined_idx;
    p
  in

  (* --- per-year quotas ------------------------------------------------ *)
  let year_quota year =
    let share = List.assoc year Spec.yearly_share in
    max 1 (int_of_float (Float.round (share *. float_of_int config.total)))
  in
  let scaled_per_year table year factor =
    let mainnet = List.assoc year table in
    if mainnet = 0 then 0
    else
      max
        (if mainnet > 0 then 1 else 0)
        (int_of_float
           (Float.round
              (float_of_int mainnet
              *. (float_of_int config.total /. float_of_int Spec.mainnet_total_alive)
              *. factor)))
  in

  (* --- deployment helpers --------------------------------------------- *)
  let upgrades_for_slot_proxy proxy slot =
    (* Figure 6: 0.3% of proxies upgrade, 1.32 events on average. *)
    if Prng.bool rng Spec.upgrade_rate_slot_proxy then begin
      let events = if Prng.bool rng 0.68 then 1 else 1 + Prng.int rng 2 in
      let new_logics =
        List.init events (fun _ ->
            Lazy.force (Prng.pick rng aligned_logic))
      in
      List.iter
        (fun l ->
          Chain.advance_blocks chain (1 + Prng.int rng 40);
          Chain.set_storage_direct chain proxy slot (Address.to_u256 l))
        new_logics;
      new_logics
    end
    else []
  in
  let deploy_proxy kind =
    match kind with
    | K_minimal_proxy ->
        let choices =
          List.init n_minimal_groups (fun i -> (i, minimal_group_weight i))
        in
        let group = Prng.pick_weighted rng choices in
        let target = Lazy.force minimal_targets.(group) in
        let addr = install st (Patterns.eip1167_runtime target) in
        (addr, [ target ], false, false, 0)
    | K_ownable_clone ->
        let addr = install st ownable_bytes in
        if Prng.bool rng 0.5 then register_source st addr ownable_ast;
        Chain.set_storage_direct chain addr U256.one (Address.to_u256 wyvern);
        (addr, [ wyvern ], true, false, 0)
    | K_slot_proxy ->
        let variant = Prng.pick rng slot_variants in
        let with_source = Prng.bool rng 0.6 in
        let addr = install_ast st ~with_source variant in
        let logic = Lazy.force (Prng.pick rng aligned_logic) in
        Chain.set_storage_direct chain addr U256.one (Address.to_u256 logic);
        let upgrades = upgrades_for_slot_proxy addr U256.one in
        (addr, logic :: upgrades, false, false, List.length upgrades)
    | K_eip1967_proxy ->
        let variant = Prng.pick rng e1967_variants in
        let with_source = Prng.bool rng 0.6 in
        let addr = install_ast st ~with_source variant in
        let logic = Lazy.force (Prng.pick rng aligned_logic) in
        Chain.set_storage_direct chain addr Patterns.eip1967_implementation_slot
          (Address.to_u256 logic);
        let upgrades =
          upgrades_for_slot_proxy addr Patterns.eip1967_implementation_slot
        in
        (addr, logic :: upgrades, false, false, List.length upgrades)
    | K_eip1822_proxy ->
        let variant = Prng.pick rng e1822_variants in
        let addr = install_ast st ~with_source:(Prng.bool rng 0.6) variant in
        let logic = Lazy.force (Prng.pick rng aligned_logic) in
        Chain.set_storage_direct chain addr Patterns.eip1822_proxiable_slot
          (Address.to_u256 logic);
        (addr, [ logic ], false, false, 0)
    | K_beacon_proxy ->
        let logic = Lazy.force (Prng.pick rng aligned_logic) in
        let beacon = install_ast st (Patterns.beacon ()) in
        Chain.set_storage_direct chain beacon U256.one (Address.to_u256 logic);
        let addr =
          install_ast st ~with_source:(Prng.bool rng 0.4) (Patterns.beacon_proxy ())
        in
        Chain.set_storage_direct chain addr Patterns.eip1967_beacon_slot
          (Address.to_u256 beacon);
        (addr, [ logic ], false, false, 0)
    | K_honeypot_proxy ->
        let proxy_ast, logic_ast = honeypot_variant (next_mined ()) in
        let logic = deploy_logic ~with_source:(Prng.bool rng 0.5) logic_ast in
        let addr = install_ast st ~with_source:(Prng.bool rng 0.3) proxy_ast in
        Chain.set_storage_direct chain addr U256.one (Address.to_u256 logic);
        (addr, [ logic ], true, false, 0)
    | K_audius_proxy ->
        let proxy_ast, logic_ast = audius_variant (Prng.int rng 1_000_000) in
        let logic = deploy_logic ~with_source:true logic_ast in
        let addr = install_ast st ~with_source:true proxy_ast in
        Chain.set_storage_direct chain addr U256.zero
          (Address.to_u256 (Prng.pick rng st.g_caller_pool));
        Chain.set_storage_direct chain addr U256.one (Address.to_u256 logic);
        (addr, [ logic ], false, true, 0)
    | K_diamond_proxy ->
        let addr =
          install_ast st ~with_source:(Prng.bool rng 0.5) (Patterns.diamond_proxy ())
        in
        let logic = Lazy.force (Prng.pick rng aligned_logic) in
        (addr, [ logic ], false, false, 0)
    | K_library_caller | K_plain | K_broken -> assert false
  in
  let library_tx addr =
    (* Exercise the delegate-calling function so the library call leaves a
       DELEGATECALL trace in history — the CRUSH false-positive shape. *)
    let from = Prng.pick rng st.g_caller_pool in
    let input =
      Evm.Abi.encode_call ~signature:"addChecked(uint256,uint256)"
        [ Evm.Abi.Uint U256.one; Evm.Abi.Uint (U256.of_int 2) ]
    in
    ignore (Chain.call chain ~from ~to_:addr ~input ())
  in
  let deploy_non_proxy kind i =
    match kind with
    | K_library_caller ->
        let lib = Lazy.force (Prng.pick rng aligned_logic) in
        install_ast st ~with_source:(Prng.bool rng Spec.source_rate_non_proxy)
          (Patterns.library_caller ~lib)
    | K_broken -> install st (broken_bytecode i)
    | _ ->
        let ast = Prng.pick rng plain_pool in
        install_ast st ~with_source:(Prng.bool rng Spec.source_rate_non_proxy) ast
  in

  (* --- deployment steps ----------------------------------------------- *)
  let deploy_one year kind =
    let has_tx = Prng.bool rng Spec.tx_rate in
    if is_proxy_kind kind then begin
      let addr, logics, func_c, storage_c, upgrades = deploy_proxy kind in
      if has_tx then give_tx st addr;
      record st
        {
          l_address = addr;
          l_year = year;
          l_kind = kind;
          l_is_proxy = true;
          l_standard = standard_of_kind kind;
          l_has_source = Hashtbl.mem st.g_sources addr;
          l_has_tx = has_tx;
          l_logics = logics;
          l_func_collision = func_c;
          l_storage_collision = storage_c;
          l_upgrades = upgrades;
        }
    end
    else begin
      let addr = deploy_non_proxy kind (Prng.int rng 1_000_000) in
      if has_tx then
        if kind = K_library_caller then library_tx addr else give_tx st addr;
      record st
        {
          l_address = addr;
          l_year = year;
          l_kind = kind;
          l_is_proxy = false;
          l_standard = None;
          l_has_source = Hashtbl.mem st.g_sources addr;
          l_has_tx = has_tx;
          l_logics = [];
          l_func_collision = false;
          l_storage_collision = false;
          l_upgrades = 0;
        }
    end
  in
  let deploy_tail year =
    let kind =
      if Prng.bool rng config.broken_rate then K_broken
      else if Prng.bool rng (Spec.proxy_rate_by_year year) then begin
        (* Ownable clones (the function-colliding mega-clone) follow
           Table 3's year shape; CoinTool/XEN minimal mega-clones and
           the tail split the rest; diamonds are a trace. *)
        if Prng.bool rng (Spec.ownable_clone_rate year) then K_ownable_clone
        else if Prng.bool rng 0.0004 then K_diamond_proxy
        else if Prng.bool rng 0.341 then K_minimal_proxy (* mega 1167 *)
        else
          Prng.pick_weighted rng
            [
              (K_minimal_proxy, 0.5495);
              (K_eip1967_proxy, 0.0100);
              (K_eip1822_proxy, 0.0012);
              (K_slot_proxy, 0.0163);
              (K_beacon_proxy, 0.0030);
            ]
      end
      else if Prng.bool rng 0.05 then K_library_caller
      else K_plain
    in
    (* Mega minimal clones must reuse the two fixed byte strings. *)
    match kind with
    | K_minimal_proxy when Prng.bool rng 0.383 ->
        (* Route a share of minimal proxies into the two mega groups. *)
        let bytes = if Prng.bool rng 0.52 then cointool_bytes else xen_bytes in
        let target = if bytes == cointool_bytes then cointool_logic else xen_logic in
        let addr = install st bytes in
        let has_tx = Prng.bool rng Spec.tx_rate in
        if has_tx then give_tx st addr;
        record st
          {
            l_address = addr;
            l_year = year;
            l_kind = K_minimal_proxy;
            l_is_proxy = true;
            l_standard = Some Standard.Eip1167;
            l_has_source = false;
            l_has_tx = has_tx;
            l_logics = [ target ];
            l_func_collision = false;
            l_storage_collision = false;
            l_upgrades = 0;
          }
    | _ -> deploy_one year kind
  in

  (* --- the cursor over the per-year quota loop ------------------------- *)
  (* Per-year quotas and the injection list involve no PRNG draws, so
     computing them lazily on the first step of each year leaves the random
     sequence identical to the eager loop. *)
  let n_years = Array.length Spec.years in
  let year_idx = ref 0 in
  let year_open = ref false in
  let pending_inj = ref [] in
  let pending_tail = ref 0 in
  let rec step () =
    if !year_idx >= n_years then false
    else begin
      let year = Spec.years.(!year_idx) in
      if not !year_open then begin
        year_ref := year;
        let quota = year_quota year in
        let storage_injections =
          scaled_per_year Spec.storage_collisions_by_year year
            config.storage_boost
        in
        let func_injections =
          scaled_per_year Spec.function_collisions_by_year year
            (config.function_injection_share *. 1.0)
        in
        let injections =
          List.init storage_injections (fun _ -> K_audius_proxy)
          @ List.init func_injections (fun _ -> K_honeypot_proxy)
        in
        pending_inj := injections;
        pending_tail := max 0 (quota - (2 * List.length injections));
        year_open := true
      end;
      match !pending_inj with
      | kind :: rest ->
          pending_inj := rest;
          deploy_one year kind;
          true
      | [] ->
          if !pending_tail > 0 then begin
            decr pending_tail;
            deploy_tail year;
            true
          end
          else begin
            year_open := false;
            incr year_idx;
            step ()
          end
    end
  in
  {
    str_chain = chain;
    str_config = config;
    str_state = st;
    str_pinned = pinned;
    str_step = step;
    str_done = false;
    str_emitted = 0;
  }

let next_batch stream ~batch =
  let st = stream.str_state in
  if stream.str_done && st.g_labels = [] then None
  else begin
    let exhausted = ref stream.str_done in
    while (not !exhausted) && st.g_recorded < batch do
      if not (stream.str_step ()) then exhausted := true
    done;
    stream.str_done <- !exhausted;
    let labels = List.rev st.g_labels in
    st.g_labels <- [];
    st.g_recorded <- 0;
    match labels with
    | [] -> None
    | _ ->
        let specs =
          List.map
            (fun l ->
              {
                sp_label = l;
                sp_code = Chain.code_at stream.str_chain l.l_address;
                sp_pinned = Hashtbl.mem stream.str_pinned l.l_address;
              })
            labels
          |> Array.of_list
        in
        stream.str_emitted <- stream.str_emitted + Array.length specs;
        Some specs
  end

let stream_chain stream = stream.str_chain
let stream_config stream = stream.str_config
let stream_emitted stream = stream.str_emitted

let stream_source_of stream =
  fun addr -> Hashtbl.find_opt stream.str_state.g_sources addr

let evict stream spec =
  if not spec.sp_pinned then begin
    Hashtbl.remove stream.str_state.g_sources spec.sp_label.l_address;
    Chain.forget_contract stream.str_chain spec.sp_label.l_address
  end

let generate (config : config) =
  let s = open_stream config in
  let acc = ref [] in
  let rec drain () =
    match next_batch s ~batch:8192 with
    | None -> ()
    | Some specs ->
        Array.iter (fun sp -> acc := sp.sp_label :: !acc) specs;
        drain ()
  in
  drain ();
  {
    chain = s.str_chain;
    labels = List.rev !acc;
    source_of = stream_source_of s;
    config;
  }

let fingerprint t =
  let b = Buffer.create (64 + (52 * List.length t.labels)) in
  (* The config first: populations whose contracts coincide (-n 400 and
     -n 401 deploy the same 460) still scale their figures differently. *)
  let c = t.config in
  Buffer.add_string b
    (Printf.sprintf "%d %d %h %h %h %d;" c.total c.seed c.storage_boost
       c.function_injection_share c.broken_rate c.chain_id);
  List.iter
    (fun l ->
      Buffer.add_string b l.l_address;
      Buffer.add_string b (Chain.code_hash t.chain l.l_address))
    t.labels;
  Keccak.digest_hex (Buffer.contents b)

let label_of t addr =
  List.find_opt (fun l -> Address.equal l.l_address addr) t.labels

let proxies t = List.filter (fun l -> l.l_is_proxy) t.labels

let by_year t =
  Array.to_list Spec.years
  |> List.map (fun y -> (y, List.filter (fun l -> l.l_year = y) t.labels))
