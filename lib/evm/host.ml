type block_info = {
  number : int;
  timestamp : int;
  coinbase : Address.t;
  gas_limit : int;
  base_fee : U256.t;
  prev_randao : U256.t;
  chain_id : U256.t;
  block_hash : int -> U256.t;
}

let default_block =
  {
    number = 18_473_542;
    (* The paper's dataset cut-off: the last block of October 2023. *)
    timestamp = 1_698_796_799;
    coinbase = Address.of_hex "0x95222290dd7278aa3ddd389cc1e1d165cc4bafe5";
    gas_limit = 30_000_000;
    base_fee = U256.of_int 25_000_000_000;
    prev_randao = U256.of_hex "0xd3adb33f";
    chain_id = U256.one;
    block_hash =
      (fun height -> U256.of_bytes_be (Keccak.digest (string_of_int height)));
  }

type t = {
  get_code : Address.t -> string;
  get_storage : Address.t -> U256.t -> U256.t;
  set_storage : Address.t -> U256.t -> U256.t -> unit;
  get_balance : Address.t -> U256.t;
  set_balance : Address.t -> U256.t -> unit;
  get_nonce : Address.t -> int;
  set_nonce : Address.t -> int -> unit;
  account_exists : Address.t -> bool;
  create_account : Address.t -> code:string -> unit;
  selfdestruct : Address.t -> beneficiary:Address.t -> unit;
  snapshot : unit -> int;
  revert_to : int -> unit;
  block : block_info;
}

(* In-memory world state with an undo journal for snapshots. *)

type account = {
  mutable code : string;
  mutable balance : U256.t;
  mutable nonce : int;
  storage : U256.t U256.Tbl.t;
  mutable alive : bool;
}

type undo =
  | Set_storage of account * U256.t * U256.t option
  | Set_balance of account * U256.t
  | Set_nonce of account * int
  | Set_code of account * string
  | Set_alive of account * bool
  | Added_account of Address.t

type admin = { commit : unit -> unit; drop_account : Address.t -> unit }

let in_memory_admin ?(block = default_block) () =
  let accounts : (Address.t, account) Hashtbl.t = Hashtbl.create 64 in
  let journal : undo list ref = ref [] in
  let journal_len = ref 0 in
  let push u =
    journal := u :: !journal;
    incr journal_len
  in
  let account addr =
    match Hashtbl.find_opt accounts addr with
    | Some a -> a
    | None ->
        let a =
          {
            code = "";
            balance = U256.zero;
            nonce = 0;
            storage = U256.Tbl.create 8;
            alive = false;
          }
        in
        Hashtbl.replace accounts addr a;
        push (Added_account addr);
        a
  in
  let get_storage addr slot =
    match Hashtbl.find_opt accounts addr with
    | None -> U256.zero
    | Some a ->
        Option.value ~default:U256.zero (U256.Tbl.find_opt a.storage slot)
  in
  let set_storage addr slot value =
    let a = account addr in
    push (Set_storage (a, slot, U256.Tbl.find_opt a.storage slot));
    if U256.is_zero value then U256.Tbl.remove a.storage slot
    else U256.Tbl.replace a.storage slot value
  in
  let get_balance addr =
    match Hashtbl.find_opt accounts addr with
    | None -> U256.zero
    | Some a -> a.balance
  in
  let set_balance addr v =
    let a = account addr in
    push (Set_balance (a, a.balance));
    a.balance <- v
  in
  let get_nonce addr =
    match Hashtbl.find_opt accounts addr with None -> 0 | Some a -> a.nonce
  in
  let set_nonce addr n =
    let a = account addr in
    push (Set_nonce (a, a.nonce));
    a.nonce <- n
  in
  let get_code addr =
    match Hashtbl.find_opt accounts addr with
    | Some a when a.alive -> a.code
    | _ -> ""
  in
  let account_exists addr =
    match Hashtbl.find_opt accounts addr with
    | Some a -> a.alive || a.nonce > 0 || not (U256.is_zero a.balance)
    | None -> false
  in
  let create_account addr ~code =
    let a = account addr in
    push (Set_code (a, a.code));
    push (Set_alive (a, a.alive));
    a.code <- code;
    a.alive <- true
  in
  let selfdestruct addr ~beneficiary =
    let a = account addr in
    let b = account beneficiary in
    push (Set_balance (b, b.balance));
    b.balance <- U256.add b.balance a.balance;
    push (Set_balance (a, a.balance));
    a.balance <- U256.zero;
    push (Set_alive (a, a.alive));
    push (Set_code (a, a.code));
    a.alive <- false;
    a.code <- ""
  in
  let snapshot () = !journal_len in
  let revert_to mark =
    while !journal_len > mark do
      (match !journal with
      | [] -> assert false
      | u :: rest ->
          journal := rest;
          decr journal_len;
          (match u with
          | Set_storage (a, slot, prev) -> (
              match prev with
              | None -> U256.Tbl.remove a.storage slot
              | Some v -> U256.Tbl.replace a.storage slot v)
          | Set_balance (a, prev) -> a.balance <- prev
          | Set_nonce (a, prev) -> a.nonce <- prev
          | Set_code (a, prev) -> a.code <- prev
          | Set_alive (a, prev) -> a.alive <- prev
          | Added_account addr -> Hashtbl.remove accounts addr))
    done
  in
  let host =
    {
      get_code;
      get_storage;
      set_storage;
      get_balance;
      set_balance;
      get_nonce;
      set_nonce;
      account_exists;
      create_account;
      selfdestruct;
      snapshot;
      revert_to;
      block;
    }
  in
  (* The undo journal exists only to serve in-flight snapshots; once a
     transaction has committed, its entries are dead weight (they pin every
     account record ever touched).  [commit] truncates it — invalidating any
     outstanding snapshot marks, so callers must only commit at quiescent
     points.  [drop_account] frees an account's code and storage outright;
     the journal must be empty (committed) when it runs, or a later revert
     could resurrect the record. *)
  let commit () =
    journal := [];
    journal_len := 0
  in
  let drop_account addr = Hashtbl.remove accounts addr in
  (host, { commit; drop_account })

let in_memory ?(block = default_block) () = fst (in_memory_admin ~block ())
let with_code host addr code = host.create_account addr ~code

(* Copy-on-write view: reads fall through to [base], writes land in private
   override tables with their own undo journal.  The base host is never
   mutated, so any number of overlays can share one base concurrently as
   long as the base itself is no longer written.  Probes revert their
   writes, so between probes every override table is empty: a read then
   goes straight to the base without hashing its key twice. *)

module Slot_tbl = Hashtbl.Make (struct
  type t = Address.t * U256.t

  let equal (a1, s1) (a2, s2) = Address.equal a1 a2 && U256.equal s1 s2
  let hash (a, s) = (Hashtbl.hash a * 65599) lxor U256.hash s
end)

type ov_undo =
  | Ov_storage of (Address.t * U256.t) * U256.t option
  | Ov_code of Address.t * (string * bool) option
  | Ov_balance of Address.t * U256.t option
  | Ov_nonce of Address.t * int option

let overlay base =
  (* Code override: [(code, alive)].  Storage overrides store the effective
     value — including zero — so a written-then-cleared slot shadows the
     base value instead of exposing it again. *)
  let code_ov : (Address.t, string * bool) Hashtbl.t = Hashtbl.create 16 in
  let storage_ov : U256.t Slot_tbl.t = Slot_tbl.create 64 in
  let balance_ov : (Address.t, U256.t) Hashtbl.t = Hashtbl.create 16 in
  let nonce_ov : (Address.t, int) Hashtbl.t = Hashtbl.create 16 in
  let journal : ov_undo list ref = ref [] in
  let journal_len = ref 0 in
  let push u =
    journal := u :: !journal;
    incr journal_len
  in
  let get_code addr =
    if Hashtbl.length code_ov = 0 then base.get_code addr
    else
      match Hashtbl.find_opt code_ov addr with
      | Some (code, alive) -> if alive then code else ""
      | None -> base.get_code addr
  in
  let eff_alive addr =
    match
      if Hashtbl.length code_ov = 0 then None else Hashtbl.find_opt code_ov addr
    with
    | Some (_, alive) -> alive
    | None ->
        (* Approximation: a base account that is alive with empty code is
           treated as absent.  The analysis datasets never create such
           accounts, and the interpreter only uses existence for EXTCODE*
           and CALL gas decisions that do not affect collision verdicts. *)
        base.get_code addr <> ""
  in
  let get_storage addr slot =
    if Slot_tbl.length storage_ov = 0 then base.get_storage addr slot
    else
      match Slot_tbl.find_opt storage_ov (addr, slot) with
      | Some v -> v
      | None -> base.get_storage addr slot
  in
  let set_storage addr slot value =
    let key = (addr, slot) in
    push (Ov_storage (key, Slot_tbl.find_opt storage_ov key));
    Slot_tbl.replace storage_ov key value
  in
  let get_balance addr =
    if Hashtbl.length balance_ov = 0 then base.get_balance addr
    else
      match Hashtbl.find_opt balance_ov addr with
      | Some v -> v
      | None -> base.get_balance addr
  in
  let set_balance addr v =
    push (Ov_balance (addr, Hashtbl.find_opt balance_ov addr));
    Hashtbl.replace balance_ov addr v
  in
  let get_nonce addr =
    if Hashtbl.length nonce_ov = 0 then base.get_nonce addr
    else
      match Hashtbl.find_opt nonce_ov addr with
      | Some n -> n
      | None -> base.get_nonce addr
  in
  let set_nonce addr n =
    push (Ov_nonce (addr, Hashtbl.find_opt nonce_ov addr));
    Hashtbl.replace nonce_ov addr n
  in
  let account_exists addr =
    eff_alive addr || get_nonce addr > 0 || not (U256.is_zero (get_balance addr))
  in
  let set_code addr code alive =
    push (Ov_code (addr, Hashtbl.find_opt code_ov addr));
    Hashtbl.replace code_ov addr (code, alive)
  in
  let create_account addr ~code = set_code addr code true in
  let selfdestruct addr ~beneficiary =
    set_balance beneficiary (U256.add (get_balance beneficiary) (get_balance addr));
    set_balance addr U256.zero;
    set_code addr "" false
  in
  let snapshot () = !journal_len in
  let revert_to mark =
    while !journal_len > mark do
      match !journal with
      | [] -> assert false
      | u :: rest -> (
          journal := rest;
          decr journal_len;
          match u with
          | Ov_storage (key, prev) -> (
              match prev with
              | None -> Slot_tbl.remove storage_ov key
              | Some v -> Slot_tbl.replace storage_ov key v)
          | Ov_code (addr, prev) -> (
              match prev with
              | None -> Hashtbl.remove code_ov addr
              | Some v -> Hashtbl.replace code_ov addr v)
          | Ov_balance (addr, prev) -> (
              match prev with
              | None -> Hashtbl.remove balance_ov addr
              | Some v -> Hashtbl.replace balance_ov addr v)
          | Ov_nonce (addr, prev) -> (
              match prev with
              | None -> Hashtbl.remove nonce_ov addr
              | Some v -> Hashtbl.replace nonce_ov addr v))
    done
  in
  {
    get_code;
    get_storage;
    set_storage;
    get_balance;
    set_balance;
    get_nonce;
    set_nonce;
    account_exists;
    create_account;
    selfdestruct;
    snapshot;
    revert_to;
    block = base.block;
  }
