module Address = Evm.Address
module Ast = Minisol.Ast
module Patterns = Minisol.Patterns
module Codegen = Minisol.Codegen

type pair_label = {
  c_name : string;
  c_proxy : Address.t;
  c_logic : Address.t;
  c_gt_func : bool;
  c_gt_storage : bool;
  c_has_tx : bool;
}

type corpus = {
  chain : Chain.t;
  pairs : pair_label list;
  source_of : Proxion.Analysis.source_lookup;
}

let eoa i =
  Address.of_u256 (U256.of_bytes_be (Keccak.digest (Printf.sprintf "corpus-eoa-%d" i)))

(* A library contract with a small-typed variable at slot 0: pairs made of
   (library caller, this) exhibit a slot-0 type clash, but they are not
   proxy pairs at all — the CRUSH/USCHunt false-positive shape. *)
let small_var_library i =
  Ast.contract (Printf.sprintf "MathLib%d" i)
    ~vars:[ { Ast.v_name = "initialized"; v_ty = Ast.T_bool } ]
    ~funcs:
      [
        Ast.func "add"
          ~params:
            [
              { Ast.p_name = "a"; p_ty = Ast.T_uint 256 };
              { Ast.p_name = "b"; p_ty = Ast.T_uint 256 };
            ]
          ~returns:(Ast.T_uint 256)
          [ Ast.Return_value (Ast.Bin (Ast.Add, Ast.Param 0, Ast.Param 1)) ];
        Ast.func "init" [ Ast.Store ("initialized", Ast.Const U256.one) ];
      ]

(* A logic contract whose colliding write is itself admin-gated: static
   comparison flags the slot-0 clash, but no attacker transaction can
   trigger it — a candidate that exploit verification rejects. *)
let guarded_write_logic i =
  Ast.contract (Printf.sprintf "GuardedLogic%d" i)
    ~vars:
      [
        { Ast.v_name = "counter"; v_ty = Ast.T_uint 256 };
        { Ast.v_name = "keeper"; v_ty = Ast.T_address };
      ]
    ~funcs:
      [
        Ast.func "bump"
          [
            Ast.Require (Ast.Bin (Ast.Eq, Ast.Caller, Ast.Load "keeper"));
            Ast.Store ("counter", Ast.Bin (Ast.Add, Ast.Load "counter", Ast.Const U256.one));
          ];
        Ast.func "current" ~mutability:Ast.View ~returns:(Ast.T_uint 256)
          [ Ast.Return_value (Ast.Load "counter") ];
      ]

let clean_logic i =
  Ast.contract (Printf.sprintf "CleanLogic%d" i)
    ~vars:
      [
        { Ast.v_name = "pad0"; v_ty = Ast.T_uint 256 };
        { Ast.v_name = "pad1"; v_ty = Ast.T_uint 256 };
        { Ast.v_name = "store_"; v_ty = Ast.T_uint 256 };
      ]
    ~funcs:
      [
        Ast.func (Printf.sprintf "put%d" i)
          ~params:[ { Ast.p_name = "v"; p_ty = Ast.T_uint 256 } ]
          [ Ast.Store ("store_", Ast.Param 0) ];
      ]

(* Emulation-hostile bytecode: passes the DELEGATECALL prefilter yet
   underflows the stack immediately — the source of the paper's three
   ProxioN function-collision misses. *)
let hostile_bytecode i =
  Evm.Asm.assemble
    [
      Evm.Asm.Push_int (0x40 + (i land 0x3f));
      Evm.Asm.Op Evm.Opcode.POP;
      Evm.Asm.Op (Evm.Opcode.SWAP 3);
      Evm.Asm.Op Evm.Opcode.DELEGATECALL;
    ]

let slot_proxy_clean i =
  Patterns.slot_var_proxy
    ~extra_funcs:[ Ast.func (Printf.sprintf "probe%d" i) [ Ast.Stop ] ]
    ()

let build ?(seed = 7) ?(size_factor = 1) () =
  let chain = Chain.create () in
  let rng = Prng.create seed in
  let sources : (Address.t, Ast.contract) Hashtbl.t = Hashtbl.create 256 in
  let pairs = ref [] in
  let install ?ast runtime =
    let addr = Chain.install_contract chain ~runtime () in
    (match ast with Some a -> Hashtbl.replace sources addr a | None -> ());
    addr
  in
  let install_ast ast = install ~ast (Codegen.runtime ast) in
  let forward_tx proxy =
    (* Any unknown selector reaches the fallback and forwards. *)
    let input = Hexutil.take 36 (Keccak.digest (Address.to_hex proxy) ^ String.make 32 '\000') in
    ignore (Chain.call chain ~from:(eoa (Prng.int rng 32)) ~to_:proxy ~input ())
  in
  let record ?(tx = false) name proxy logic ~func ~storage =
    if tx then forward_tx proxy;
    pairs :=
      {
        c_name = name;
        c_proxy = proxy;
        c_logic = logic;
        c_gt_func = func;
        c_gt_storage = storage;
        c_has_tx = tx;
      }
      :: !pairs
  in
  let n k = k * size_factor in

  (* --- storage-collision positives ----------------------------------- *)
  (* Standard Audius-style pairs with transaction history. *)
  for i = 1 to n 15 do
    let logic = install_ast (Patterns.audius_logic ()) in
    let proxy_ast =
      let base = Patterns.audius_proxy () in
      {
        base with
        Ast.c_funcs =
          base.Ast.c_funcs @ [ Ast.func (Printf.sprintf "v%d" i) [ Ast.Stop ] ];
      }
    in
    let proxy = install_ast proxy_ast in
    Chain.set_storage_direct chain proxy U256.zero (Address.to_u256 (eoa i));
    Chain.set_storage_direct chain proxy U256.one (Address.to_u256 logic);
    record ~tx:true "audius-std" proxy logic ~func:false ~storage:true
  done;
  (* Hidden pairs: identical vulnerability, but no transactions ever. *)
  for i = 1 to n 5 do
    let logic = install_ast (Patterns.audius_logic ()) in
    let proxy_ast =
      let base = Patterns.audius_proxy () in
      {
        base with
        Ast.c_funcs =
          base.Ast.c_funcs @ [ Ast.func (Printf.sprintf "h%d" i) [ Ast.Stop ] ];
      }
    in
    let proxy = install_ast proxy_ast in
    Chain.set_storage_direct chain proxy U256.zero (Address.to_u256 (eoa i));
    Chain.set_storage_direct chain proxy U256.one (Address.to_u256 logic);
    record "audius-hidden" proxy logic ~func:false ~storage:true
  done;
  (* Diamond-gated pairs: the vulnerability is live (the facet is
     registered) but ProxioN's random probe cannot pass the gate. *)
  for i = 1 to n 5 do
    let logic = install_ast (Patterns.audius_logic ()) in
    let proxy = install_ast (Patterns.diamond_proxy ()) in
    (* Register initialize() as a facet selector and leave a delegate-call
       trace in history. *)
    let owner = eoa (100 + i) in
    Chain.set_storage_direct chain proxy U256.zero (Address.to_u256 owner);
    let sel_word = U256.of_bytes_be (Keccak.selector "initialize()") in
    let _ =
      Chain.call chain ~from:owner ~to_:proxy
        ~input:
          (Evm.Abi.encode_call ~signature:"setFacet(uint256,address)"
             [ Evm.Abi.Uint sel_word; Evm.Abi.Addr logic ])
        ()
    in
    let _ =
      Chain.call chain ~from:owner ~to_:proxy
        ~input:(Evm.Abi.encode_call ~signature:"initialize()" [])
        ()
    in
    record "audius-diamond" proxy logic ~func:false ~storage:true
  done;

  (* --- storage-collision negatives ------------------------------------ *)
  for i = 1 to n 20 do
    ignore i;
    let logic = install_ast (Patterns.padding_logic ()) in
    let proxy = install_ast (Patterns.padding_proxy ()) in
    Chain.set_storage_direct chain proxy U256.zero (Address.to_u256 logic);
    record ~tx:true "padding" proxy logic ~func:false ~storage:false
  done;
  for i = 1 to n 25 do
    let logic = install_ast (clean_logic i) in
    let proxy = install_ast (Patterns.eip1967_proxy ()) in
    Chain.set_storage_direct chain proxy Patterns.eip1967_implementation_slot
      (Address.to_u256 logic);
    record ~tx:true "aligned" proxy logic ~func:false ~storage:false
  done;
  for i = 1 to n 15 do
    let lib = install_ast (small_var_library i) in
    let caller = install_ast (Patterns.library_caller ~lib) in
    (* A transaction exercising the library call leaves the DELEGATECALL
       trace that fools history-based tools. *)
    let _ =
      Chain.call chain
        ~from:(eoa (200 + i))
        ~to_:caller
        ~input:
          (Evm.Abi.encode_call ~signature:"addChecked(uint256,uint256)"
             [ Evm.Abi.Uint U256.one; Evm.Abi.Uint U256.one ])
        ()
    in
    record "library-pair" caller lib ~func:false ~storage:false
  done;
  for i = 1 to n 12 do
    let logic = install_ast (guarded_write_logic i) in
    let proxy_ast =
      let base = Patterns.audius_proxy () in
      { base with Ast.c_name = Printf.sprintf "GuardProxy%d" i }
    in
    let proxy = install_ast proxy_ast in
    Chain.set_storage_direct chain proxy U256.zero (Address.to_u256 (eoa (300 + i)));
    Chain.set_storage_direct chain proxy U256.one (Address.to_u256 logic);
    record ~tx:true "guarded-write" proxy logic ~func:false ~storage:false
  done;

  (* --- function-collision positives ----------------------------------- *)
  let mined = Array.of_list (Sig_mine.mine ~prefix:"acc" ~count:(n 60 + 3) ()) in
  let strip s = String.sub s 0 (String.length s - 2) in
  for i = 1 to n 60 do
    let pair = mined.(i - 1) in
    let logic_ast =
      Ast.contract (Printf.sprintf "Entice%d" i)
        ~funcs:
          [
            Ast.func (strip pair.Sig_mine.sig_b) ~mutability:Ast.Payable
              [ Ast.Transfer (Ast.Caller, Ast.Const (U256.of_int 1000)) ];
          ]
    in
    let proxy_ast =
      Ast.contract (Printf.sprintf "Hidden%d" i)
        ~vars:
          [
            { Ast.v_name = "owner"; v_ty = Ast.T_address };
            { Ast.v_name = "logic"; v_ty = Ast.T_address };
          ]
        ~funcs:[ Ast.func (strip pair.Sig_mine.sig_a) [ Ast.Stop ] ]
        ~fallback:(Some [ Ast.Delegate_forward (Ast.To_var "logic") ])
    in
    let logic = install_ast logic_ast in
    let proxy = install_ast proxy_ast in
    Chain.set_storage_direct chain proxy U256.one (Address.to_u256 logic);
    record ~tx:true "honeypot" proxy logic ~func:true ~storage:false
  done;
  (* The three emulation-error misses: source says collision, but the
     deployed bytecode defeats emulation. *)
  for i = 1 to 3 do
    let pair = mined.(n 60 + i - 1) in
    let logic_ast =
      Ast.contract (Printf.sprintf "EnticeX%d" i)
        ~funcs:[ Ast.func (strip pair.Sig_mine.sig_b) [ Ast.Stop ] ]
    in
    let proxy_ast =
      Ast.contract (Printf.sprintf "HostileProxy%d" i)
        ~vars:[ { Ast.v_name = "logic"; v_ty = Ast.T_address } ]
        ~funcs:[ Ast.func (strip pair.Sig_mine.sig_a) [ Ast.Stop ] ]
        ~fallback:(Some [ Ast.Delegate_forward (Ast.To_var "logic") ])
    in
    let logic = install_ast logic_ast in
    let proxy = install ~ast:proxy_ast (hostile_bytecode i) in
    record "honeypot-hostile" proxy logic ~func:true ~storage:false
  done;
  (* --- function-collision negatives ------------------------------------ *)
  for i = 1 to n 10 do
    let logic = install_ast (clean_logic (1000 + i)) in
    let proxy = install_ast (slot_proxy_clean i) in
    Chain.set_storage_direct chain proxy U256.one (Address.to_u256 logic);
    record ~tx:true "func-clean" proxy logic ~func:false ~storage:false
  done;
  {
    chain;
    pairs = List.rev !pairs;
    source_of = (fun addr -> Hashtbl.find_opt sources addr);
  }
