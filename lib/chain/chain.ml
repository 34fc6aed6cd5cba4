module Address = Evm.Address
module Host = Evm.Host
module Interp = Evm.Interp

type internal_call = {
  ic_kind : Interp.call_kind;
  ic_from : Address.t;
  ic_to : Address.t;
}

type tx_record = {
  tx_height : int;
  tx_gas_used : int;  (* intrinsic + execution *)
  tx_from : Address.t;
  tx_to : Address.t option;
  tx_input : string;
  tx_value : U256.t;
  tx_status : Interp.status;
  tx_created : Address.t option;
  tx_internal_calls : internal_call list;
  tx_return_data : string;
  tx_logs : Interp.log_entry list;
}

type contract_meta = {
  cm_address : Address.t;
  cm_deploy_height : int;
  cm_creator : Address.t;
}

type slot_key = { sk_addr : Address.t; sk_slot : U256.t }

let slot_key_compare a b =
  let c = Address.compare a.sk_addr b.sk_addr in
  if c <> 0 then c else U256.compare a.sk_slot b.sk_slot

(* Keyed structurally but hashed/compared with the dedicated word
   primitives — the history table sits on the Algorithm 1 hot path, and
   the polymorphic hash would traverse the 16-limb array every probe. *)
module Slot_tbl = Hashtbl.Make (struct
  type t = slot_key

  let equal a b =
    Address.equal a.sk_addr b.sk_addr && U256.equal a.sk_slot b.sk_slot

  let hash k = (Hashtbl.hash k.sk_addr * 65599) lxor U256.hash k.sk_slot
end)

type t = {
  state : Host.t;  (* head state; block info replaced per access *)
  admin : Host.admin;  (* owner-side journal/eviction control of [state] *)
  dropped : (Address.t, unit) Hashtbl.t;  (* evicted, awaiting index sweep *)
  mutable head : int;
  base_block : Host.block_info;
  (* (height, value) change lists per slot, most recent first. *)
  history : (int * U256.t) list ref Slot_tbl.t;
  contracts : (Address.t, contract_meta) Hashtbl.t;
  (* (code, Keccak-256 of that code) per registered contract.  A read
     trusts the hash only while the account still holds that very string
     (physical equality), so no code change can make it stale. *)
  code_hashes : (Address.t, string * string) Hashtbl.t;
  mutable contract_order : contract_meta list; (* reverse deployment order *)
  tx_index : (Address.t, tx_record list ref) Hashtbl.t;
  mutable txs : tx_record list; (* reverse order *)
  mutable api_calls : int;
  method_calls : (string, int ref) Hashtbl.t;
  mutable install_nonce : int;
  (* (deploy height, nonce after the install), newest first — the undo
     log that lets a reorg rewind the installer nonce so re-mined
     deployments reuse the orphaned fork's addresses, as CREATE does. *)
  mutable nonce_marks : (int * int) list;
}

let create ?(block = Host.default_block) () =
  let state, admin = Host.in_memory_admin ~block () in
  {
    state;
    admin;
    dropped = Hashtbl.create 64;
    head = 0;
    base_block = block;
    history = Slot_tbl.create 1024;
    contracts = Hashtbl.create 1024;
    code_hashes = Hashtbl.create 1024;
    contract_order = [];
    tx_index = Hashtbl.create 1024;
    txs = [];
    api_calls = 0;
    method_calls = Hashtbl.create 8;
    install_nonce = 0;
    nonce_marks = [];
  }

let height t = t.head
let advance_blocks t n = if n > 0 then t.head <- t.head + n
let fund t addr amount =
  t.state.Host.set_balance addr amount;
  t.admin.Host.commit ()

let worker_view t =
  (* Shallow copy sharing the (read-only during analysis) history, contract
     and transaction indexes, with a private copy-on-write host and private
     API-call counters (total and per-method — a record copy would alias the
     per-method table, so it is allocated fresh).  The emulation stages
     write only through the overlay, so concurrent views never race on the
     base state. *)
  {
    t with
    state = Host.overlay t.state;
    api_calls = 0;
    method_calls = Hashtbl.create 8;
  }

let host_at_head t =
  (* One block per transaction at mainnet's 12-second cadence. *)
  {
    t.state with
    Host.block =
      {
        t.base_block with
        Host.number = t.head;
        Host.timestamp = t.base_block.Host.timestamp + (12 * t.head);
      };
  }

(* ------------------------------------------------------------------ *)
(* History recording                                                    *)
(* ------------------------------------------------------------------ *)

let last_recorded t key =
  match Slot_tbl.find_opt t.history key with
  | None | Some { contents = [] } -> U256.zero
  | Some { contents = (_, v) :: _ } -> v

let record_slot t key value =
  if not (U256.equal (last_recorded t key) value) then begin
    let entries =
      match Slot_tbl.find_opt t.history key with
      | Some r -> r
      | None ->
          let r = ref [] in
          Slot_tbl.replace t.history key r;
          r
    in
    (* Same-height overwrite replaces the entry. *)
    (match !entries with
    | (h, _) :: rest when h = t.head -> entries := (t.head, value) :: rest
    | l -> entries := (t.head, value) :: l)
  end

let register_contract t ~address ~creator =
  let code = t.state.Host.get_code address in
  (match Hashtbl.find_opt t.code_hashes address with
  | Some (stored, _) when stored == code -> ()
  | _ -> Hashtbl.replace t.code_hashes address (code, Keccak.digest code));
  if not (Hashtbl.mem t.contracts address) then begin
    let meta =
      { cm_address = address; cm_deploy_height = t.head; cm_creator = creator }
    in
    Hashtbl.replace t.contracts address meta;
    t.contract_order <- meta :: t.contract_order
  end

let index_tx t addr record =
  let bucket =
    match Hashtbl.find_opt t.tx_index addr with
    | Some r -> r
    | None ->
        let r = ref [] in
        Hashtbl.replace t.tx_index addr r;
        r
  in
  bucket := record :: !bucket

let commit_tx t ~touched_slots ~record =
  (* Fold final values of touched slots into history (reverted writes have
     already been rolled back inside the interpreter, so reading the head
     state here gives the true post-transaction values). *)
  List.iter
    (fun key -> record_slot t key (t.state.Host.get_storage key.sk_addr key.sk_slot))
    touched_slots;
  t.txs <- record :: t.txs;
  let participants =
    record.tx_from
    :: (Option.to_list record.tx_to @ Option.to_list record.tx_created)
    @ List.concat_map
        (fun ic -> [ ic.ic_from; ic.ic_to ])
        record.tx_internal_calls
  in
  List.iter
    (fun a -> index_tx t a record)
    (List.sort_uniq Address.compare participants);
  t.head <- t.head + 1;
  (* The transaction is final: its undo entries can never be replayed, so
     truncate the journal rather than let it pin every touched account for
     the lifetime of the chain.  No interpreter frame is live here, hence
     no outstanding snapshot marks. *)
  t.admin.Host.commit ()

(* ------------------------------------------------------------------ *)
(* Transactions                                                         *)
(* ------------------------------------------------------------------ *)

let tx_gas_limit = 30_000_000

(* Intrinsic transaction gas: the 21000 base plus per-byte calldata cost
   (and the creation surcharge). *)
let intrinsic_gas ~creation data =
  let data_cost =
    String.fold_left
      (fun acc c -> acc + Evm.Gas.tx_data_byte ~zero:(c = '\000'))
      0 data
  in
  Evm.Gas.tx_base + (if creation then Evm.Gas.tx_create else 0) + data_cost

let observing_tracer ?(inner = Interp.no_tracer) () =
  let touched = ref [] in
  let calls = ref [] in
  let created = ref [] in
  let tracer =
    {
      inner with
      Interp.on_sstore =
        (fun addr slot v ->
          touched := { sk_addr = addr; sk_slot = slot } :: !touched;
          inner.Interp.on_sstore addr slot v);
      Interp.on_call =
        (fun ev ->
          calls :=
            {
              ic_kind = ev.Interp.kind;
              ic_from = ev.Interp.initiator;
              ic_to = ev.Interp.code_address;
            }
            :: !calls;
          inner.Interp.on_call ev);
      Interp.on_create =
        (fun ~creator ~created:addr ~init_code ->
          created := (creator, addr) :: !created;
          inner.Interp.on_create ~creator ~created:addr ~init_code);
    }
  in
  (tracer, touched, calls, created)

let deploy t ~from ?(value = U256.zero) ~init_code () =
  let host = host_at_head t in
  let tracer, touched, calls, created_acc = observing_tracer () in
  let intrinsic = intrinsic_gas ~creation:true init_code in
  let result =
    Interp.create ~tracer host ~caller:from ~value ~init_code
      ~gas:(max 0 (tx_gas_limit - intrinsic))
  in
  let record =
    {
      tx_height = t.head;
      tx_gas_used = intrinsic + result.Interp.gas_used;
      tx_from = from;
      tx_to = None;
      tx_input = init_code;
      tx_value = value;
      tx_status = result.Interp.status;
      tx_created = result.Interp.created;
      tx_internal_calls = List.rev !calls;
      tx_return_data = result.Interp.return_data;
      tx_logs = result.Interp.logs;
    }
  in
  (* Register the top-level creation plus nested CREATEs. *)
  (match result.Interp.created with
  | Some addr -> register_contract t ~address:addr ~creator:from
  | None -> ());
  List.iter
    (fun (creator, addr) -> register_contract t ~address:addr ~creator)
    (List.rev !created_acc);
  commit_tx t ~touched_slots:(List.sort_uniq slot_key_compare !touched) ~record;
  match (result.Interp.status, result.Interp.created) with
  | Interp.Returned, Some addr -> Ok addr
  | Interp.Returned, None -> Error "creation returned no address"
  | Interp.Reverted, _ -> Error "creation reverted"
  | Interp.Failed e, _ -> Error (Interp.error_to_string e)

let call t ~from ~to_ ?(value = U256.zero) ?(input = "")
    ?(tracer = Interp.no_tracer) () =
  let host = host_at_head t in
  let tracer, touched, calls, created_acc = observing_tracer ~inner:tracer () in
  let intrinsic = intrinsic_gas ~creation:false input in
  let result =
    Interp.execute ~tracer host
      (Interp.make_call ~caller:from ~target:to_ ~value ~input
         ~gas:(max 0 (tx_gas_limit - intrinsic))
         ())
  in
  List.iter
    (fun (creator, addr) -> register_contract t ~address:addr ~creator)
    (List.rev !created_acc);
  let record =
    {
      tx_height = t.head;
      tx_gas_used = intrinsic + result.Interp.gas_used;
      tx_from = from;
      tx_to = Some to_;
      tx_input = input;
      tx_value = value;
      tx_status = result.Interp.status;
      tx_created = None;
      tx_internal_calls = List.rev !calls;
      tx_return_data = result.Interp.return_data;
      tx_logs = result.Interp.logs;
    }
  in
  commit_tx t ~touched_slots:(List.sort_uniq slot_key_compare !touched) ~record;
  record

(* ------------------------------------------------------------------ *)
(* Direct installation                                                  *)
(* ------------------------------------------------------------------ *)

let installer = Address.of_hex "0x00000000000000000000000000000000deadbeef"

let install_contract t ?(creator = installer) ~runtime () =
  let address =
    Rlp.contract_address ~sender:creator ~nonce:t.install_nonce
  in
  t.install_nonce <- t.install_nonce + 1;
  t.nonce_marks <- (t.head, t.install_nonce) :: t.nonce_marks;
  t.state.Host.create_account address ~code:runtime;
  register_contract t ~address ~creator;
  t.head <- t.head + 1;
  t.admin.Host.commit ();
  address

let set_storage_direct t addr slot value =
  t.state.Host.set_storage addr slot value;
  record_slot t { sk_addr = addr; sk_slot = slot } value;
  t.head <- t.head + 1;
  t.admin.Host.commit ()

(* ------------------------------------------------------------------ *)
(* Eviction                                                             *)
(* ------------------------------------------------------------------ *)

(* Streamed scans analyze a batch of freshly deployed contracts and then
   evict them so RSS stays bounded by the batch, not the total.  The
   account itself (code + storage — the dominant weight) is freed
   immediately; the secondary indexes (slot history, contract metadata,
   transaction lists) are swept in amortized bulk passes so eviction stays
   O(1) per contract.

   Eviction is an owner-side operation: it must not run concurrently with
   worker views (call it only between analysis batches), and evicting a
   contract that later deployments still delegate to is the caller's bug —
   the dataset stream marks such addresses as pinned. *)

let sweep_threshold = 8192

let compact t =
  if Hashtbl.length t.dropped > 0 then begin
    let dead a = Hashtbl.mem t.dropped a in
    let doomed =
      Slot_tbl.fold
        (fun k _ acc -> if dead k.sk_addr then k :: acc else acc)
        t.history []
    in
    List.iter (Slot_tbl.remove t.history) doomed;
    Hashtbl.iter (fun a () -> Hashtbl.remove t.contracts a) t.dropped;
    t.contract_order <-
      List.filter (fun m -> not (dead m.cm_address)) t.contract_order;
    let tx_dead r =
      (match r.tx_to with Some a -> dead a | None -> false)
      || match r.tx_created with Some a -> dead a | None -> false
    in
    t.txs <- List.filter (fun r -> not (tx_dead r)) t.txs;
    let dead_buckets =
      Hashtbl.fold
        (fun a _ acc -> if dead a then a :: acc else acc)
        t.tx_index []
    in
    List.iter (Hashtbl.remove t.tx_index) dead_buckets;
    Hashtbl.iter
      (fun _ r -> r := List.filter (fun tx -> not (tx_dead tx)) !r)
      t.tx_index;
    Hashtbl.reset t.dropped
  end

let forget_contract t addr =
  if Hashtbl.mem t.contracts addr && not (Hashtbl.mem t.dropped addr) then begin
    t.admin.Host.commit ();
    t.admin.Host.drop_account addr;
    Hashtbl.remove t.code_hashes addr;
    Hashtbl.replace t.dropped addr ();
    if Hashtbl.length t.dropped >= sweep_threshold then compact t
  end

(* ------------------------------------------------------------------ *)
(* Reorg rewind                                                         *)
(* ------------------------------------------------------------------ *)

type rewind_summary = {
  rw_orphaned : Address.t list;
  rw_reverted_writes : Address.t list;
}

(* Roll the head back to [height], dropping every block above it: the
   inverse of the recording paths, reconstructed entirely from the
   height-tagged indexes (slot history, deploy heights, tx heights,
   nonce marks), so a rewind followed by re-mining the same blocks is
   byte-identical to never having rewound.  Like eviction, this is an
   owner-side operation — never run it concurrently with worker
   views. *)
let rewind_to t ~height =
  if height >= t.head then { rw_orphaned = []; rw_reverted_writes = [] }
  else begin
    (* An event in block [h] leaves the head at [h + 1], so a head of
       [height] retains exactly the events with [h < height] — the
       orphaned region is [h >= height]. *)
    (* Contracts deployed on orphaned blocks disappear outright,
       account and all (deployment order, for deterministic consumers). *)
    let orphaned_meta =
      List.filter (fun m -> m.cm_deploy_height >= height) t.contract_order
    in
    let orphaned = List.rev_map (fun m -> m.cm_address) orphaned_meta in
    t.admin.Host.commit ();
    List.iter
      (fun a ->
        t.admin.Host.drop_account a;
        Hashtbl.remove t.contracts a;
        Hashtbl.remove t.code_hashes a;
        Hashtbl.remove t.dropped a)
      orphaned;
    t.contract_order <-
      List.filter (fun m -> m.cm_deploy_height < height) t.contract_order;
    let orphan_tbl = Hashtbl.create 16 in
    List.iter (fun a -> Hashtbl.replace orphan_tbl a ()) orphaned;
    (* Truncate slot histories past [height] and restore the surviving
       accounts' head-state values to what the canonical chain held. *)
    let reverted = ref [] in
    let doomed = ref [] in
    Slot_tbl.iter
      (fun key entries ->
        match !entries with
        | (h, _) :: _ when h >= height ->
            let keep = List.filter (fun (h, _) -> h < height) !entries in
            entries := keep;
            if keep = [] then doomed := key :: !doomed;
            if not (Hashtbl.mem orphan_tbl key.sk_addr) then begin
              let v = match keep with (_, v) :: _ -> v | [] -> U256.zero in
              t.state.Host.set_storage key.sk_addr key.sk_slot v;
              reverted := key.sk_addr :: !reverted
            end
        | _ -> ())
      t.history;
    List.iter (Slot_tbl.remove t.history) !doomed;
    (* Transactions mined on orphaned blocks never happened. *)
    t.txs <- List.filter (fun r -> r.tx_height < height) t.txs;
    let empty_buckets =
      Hashtbl.fold
        (fun a r acc ->
          r := List.filter (fun tx -> tx.tx_height < height) !r;
          if !r = [] then a :: acc else acc)
        t.tx_index []
    in
    List.iter (Hashtbl.remove t.tx_index) empty_buckets;
    (* Rewind the installer nonce so re-mined deployments reuse the
       fork's addresses, exactly as CREATE would on a real chain. *)
    t.nonce_marks <- List.filter (fun (h, _) -> h < height) t.nonce_marks;
    t.install_nonce <-
      (match t.nonce_marks with (_, n) :: _ -> n | [] -> 0);
    t.head <- height;
    t.admin.Host.commit ();
    {
      rw_orphaned = orphaned;
      rw_reverted_writes = List.sort_uniq Address.compare !reverted;
    }
  end

(* ------------------------------------------------------------------ *)
(* Archive queries                                                      *)
(* ------------------------------------------------------------------ *)

let rec value_at height = function
  | [] -> U256.zero
  | (h, v) :: rest -> if h <= height then v else value_at height rest

let get_storage_at t addr slot ~height =
  t.api_calls <- t.api_calls + 1;
  match Slot_tbl.find t.history { sk_addr = addr; sk_slot = slot } with
  | entries -> value_at height !entries
  | exception Not_found -> U256.zero

let api_call_count t = t.api_calls
let reset_api_call_count t = t.api_calls <- 0
let add_api_calls t n = t.api_calls <- t.api_calls + n

let record_method_call t meth =
  match Hashtbl.find t.method_calls meth with
  | n -> incr n
  | exception Not_found -> Hashtbl.add t.method_calls meth (ref 1)

let method_call_counts t =
  Hashtbl.fold (fun meth n acc -> (meth, !n) :: acc) t.method_calls []
  |> List.sort compare

let storage_change_heights t addr slot =
  match Slot_tbl.find_opt t.history { sk_addr = addr; sk_slot = slot } with
  | None -> []
  | Some entries -> List.rev_map fst !entries

(* ------------------------------------------------------------------ *)
(* Indexes                                                              *)
(* ------------------------------------------------------------------ *)

let code_at t addr = t.state.Host.get_code addr

let code_hash t addr =
  let code = code_at t addr in
  match Hashtbl.find_opt t.code_hashes addr with
  | Some (stored, hash) when stored == code -> hash
  | _ -> Keccak.digest code

let contract_meta t addr = Hashtbl.find_opt t.contracts addr
let all_contracts t = List.rev t.contract_order

let transactions_of t addr =
  match Hashtbl.find_opt t.tx_index addr with
  | None -> []
  | Some r -> List.rev !r

let has_transactions t addr =
  List.exists
    (fun tx ->
      (* Deployment of the contract itself does not count as interaction. *)
      not (tx.tx_created = Some addr && tx.tx_internal_calls = []))
    (transactions_of t addr)

let all_transactions t = List.rev t.txs
