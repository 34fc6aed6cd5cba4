(** A simulated Ethereum chain with archive-node semantics.

    This substrate replaces the paper's locally established archive node
    (§7.1): it executes transactions through the EVM interpreter, assigns
    one block per transaction, and keeps the full history of every storage
    slot so that {!get_storage_at} can answer at any past height — the API
    Algorithm 1 binary-searches over.  It also indexes transactions and
    their internal calls, which is what the transaction-history-based
    baselines (CRUSH, Salehi et al.) consume. *)

type t

(** One internal message call observed while executing a transaction. *)
type internal_call = {
  ic_kind : Evm.Interp.call_kind;
  ic_from : Evm.Address.t;
  ic_to : Evm.Address.t;  (** Code address of the callee. *)
}

(** An executed transaction, as recorded in the chain's history. *)
type tx_record = {
  tx_height : int;
  tx_gas_used : int;
      (** Intrinsic gas (21000 base, calldata bytes, creation surcharge)
          plus execution gas. *)
  tx_from : Evm.Address.t;
  tx_to : Evm.Address.t option;  (** [None] for contract creations. *)
  tx_input : string;
  tx_value : U256.t;
  tx_status : Evm.Interp.status;
  tx_created : Evm.Address.t option;
  tx_internal_calls : internal_call list;
  tx_return_data : string;
  tx_logs : Evm.Interp.log_entry list;
}

(** Metadata the analysis layer reads for every known contract account. *)
type contract_meta = {
  cm_address : Evm.Address.t;
  cm_deploy_height : int;
  cm_creator : Evm.Address.t;
}

val create : ?block:Evm.Host.block_info -> unit -> t
(** A fresh chain at height 0 with no accounts. *)

val height : t -> int
val advance_blocks : t -> int -> unit
(** Mine [n] empty blocks (moves the head height). *)

val fund : t -> Evm.Address.t -> U256.t -> unit
(** Credit an externally-owned account (faucet). *)

val worker_view : t -> t
(** A share-safe view for one analysis worker: the history, contract,
    code-hash and transaction indexes are shared with the original (they
    must not be mutated while views are live), state writes go into a private
    {!Evm.Host.overlay}, and the view carries its own API-call and
    per-method counters starting at zero.  {!get_storage_at} /
    {!host_at_head} / {!transactions_of} behave identically to the
    original chain; the head height and block header are the original's
    when the view is made, so a view is rebuilt after the chain advances.
    A view's archive calls reach the original's {!api_call_count} only
    when its owner adds them with {!add_api_calls} — the analyzer does,
    per item. *)

val host_at_head : t -> Evm.Host.t
(** Host view of the current head state with a live block header; reads are
    cheap, writes go straight into head state {e without} history tracking —
    use transactions or {!set_storage_direct} for recorded mutations. *)

(** {1 Transactions} *)

val deploy : t -> from:Evm.Address.t -> ?value:U256.t -> init_code:string ->
  unit -> (Evm.Address.t, string) result
(** Execute a creation transaction; mines a block.  Returns the new address
    or a failure description. *)

val call :
  t ->
  from:Evm.Address.t ->
  to_:Evm.Address.t ->
  ?value:U256.t ->
  ?input:string ->
  ?tracer:Evm.Interp.tracer ->
  unit ->
  tx_record
(** Execute a message-call transaction; mines a block. *)

(** {1 Direct state installation (dataset generation)} *)

val install_contract :
  t ->
  ?creator:Evm.Address.t ->
  runtime:string ->
  unit ->
  Evm.Address.t
(** Install runtime bytecode at a fresh deterministic address without
    running init code — the moral equivalent of loading a contract observed
    on mainnet.  Mines a block and records deployment metadata. *)

val set_storage_direct : t -> Evm.Address.t -> U256.t -> U256.t -> unit
(** Write a storage slot at the head height with history recording; mines a
    block.  Used to replay upgrade events (logic-address changes). *)

(** {1 Eviction}

    Streamed bounded-RSS scans deploy a batch, analyze it, and evict it.
    Both operations are owner-side: never call them while worker views are
    live, and never evict an address later deployments still delegate to
    (the dataset stream marks those as pinned). *)

val forget_contract : t -> Evm.Address.t -> unit
(** Free a contract's account (code + storage) and its {!code_hash}
    entry immediately, and queue its secondary-index entries (slot
    history, metadata, transaction lists) for an amortized bulk sweep.
    Until the sweep runs, {!contract_meta} and {!all_contracts} may still
    list the address while {!code_at} already returns [""].  No-op for
    unknown or already-evicted addresses. *)

val compact : t -> unit
(** Run the index sweep now instead of waiting for the eviction threshold —
    useful at end of run and in tests asserting post-eviction state. *)

(** {1 Reorg rewind} *)

(** What a rewind undid, for the incremental-analysis layer. *)
type rewind_summary = {
  rw_orphaned : Evm.Address.t list;
      (** Contracts whose deployment was orphaned (deployment order);
          their accounts and index entries are gone. *)
  rw_reverted_writes : Evm.Address.t list;
      (** Surviving contracts whose storage was rolled back (sorted,
          deduplicated). *)
}

val rewind_to : t -> height:int -> rewind_summary
(** Roll the head back to [height], dropping every block above it: the
    inverse of the recording paths.  Orphaned deployments lose their
    accounts, slot histories truncate (and surviving accounts' head
    values restore to the canonical state at [height]), orphaned
    transactions vanish from the indexes, and the installer nonce
    rewinds so re-mined deployments reuse the fork's addresses — a
    rewind followed by re-mining the same blocks is byte-identical to
    never having rewound.  Owner-side: never call while worker views
    are live.  No-op when [height >= height t]. *)

(** {1 Archive queries} *)

val get_storage_at : t -> Evm.Address.t -> U256.t -> height:int -> U256.t
(** The [eth_getStorageAt]-at-height API.  Every call increments the API
    counter that the §6.1 efficiency experiment reports. *)

val api_call_count : t -> int
val reset_api_call_count : t -> unit

val add_api_calls : t -> int -> unit
(** Count [n] archive calls made through a {!worker_view} against this
    chain, so its {!api_call_count} is the same whichever view served
    them. *)

val record_method_call : t -> string -> unit
(** Count one RPC method invocation against this chain (or view) —
    called by the RPC front end for every request it serves, whatever
    the method.  Distinct from {!api_call_count}, which counts only the
    paper's §6.1 storage probes. *)

val method_call_counts : t -> (string * int) list
(** Per-method RPC invocation counts, sorted by method name.  A
    {!worker_view} carries its own table starting empty, so per-item
    counts are deltas on the worker's own table. *)

val storage_change_heights : t -> Evm.Address.t -> U256.t -> int list
(** Ground truth for tests: ascending heights at which the slot changed. *)

(** {1 Contract and transaction indexes} *)

val code_at : t -> Evm.Address.t -> string

val code_hash : t -> Evm.Address.t -> string
(** EXTCODEHASH-style (EIP-1052) identity of the code at an address:
    always [Keccak.digest (code_at t a)], including the digest of [""] for
    an address with no code (where EXTCODEHASH would give zero for an
    absent account).  Registering a contract hashes its code once and
    keeps the hash beside the code string it hashed; a read returns that
    hash only while {!code_at} still yields the very same string, and
    re-hashes otherwise, so SELFDESTRUCT, a rewind or an eviction can
    never make it stale.  Worker views share the table read-only. *)

val contract_meta : t -> Evm.Address.t -> contract_meta option
val all_contracts : t -> contract_meta list
(** In deployment order. *)

val transactions_of : t -> Evm.Address.t -> tx_record list
(** Transactions in which the address was the external target, the sender,
    or a participant of an internal call — the notion of "has past
    transactions" used throughout the paper. *)

val has_transactions : t -> Evm.Address.t -> bool
(** True when the contract has been involved in any transaction besides its
    own deployment. *)

val all_transactions : t -> tx_record list
(** Every transaction ever executed, in order. *)
