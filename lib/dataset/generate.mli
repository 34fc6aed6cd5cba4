(** Synthetic Ethereum landscape generation.

    Builds a population of contracts on a simulated chain whose joint
    distribution follows the paper's measurements (see {!Spec}): yearly
    deployment volumes and proxy rates, source and transaction
    availability, the Table 4 standard mix, the Figure 5 clone skew with
    three mega-clones, Table 3 collision injections (function collisions
    dominated by OwnableDelegateProxy-style clones, storage collisions as
    Audius-style pairs), Figure 6 upgrade sparsity, plus the populations
    the tools disagree about: library callers (CRUSH false positives),
    diamonds (ProxioN misses), and malformed bytecode (emulation errors).

    Generation is deterministic in the config seed, and every contract
    carries a ground-truth label, which is what the accuracy experiments
    score against. *)

type kind =
  | K_minimal_proxy  (** EIP-1167 bytes. *)
  | K_slot_proxy  (** "Others": logic address in an ordinary variable. *)
  | K_eip1967_proxy
  | K_eip1822_proxy
  | K_beacon_proxy  (** EIP-1967 beacon variant: computed logic address. *)
  | K_ownable_clone  (** The function-colliding mega-clone. *)
  | K_honeypot_proxy  (** Injected fresh function collision (Listing 1). *)
  | K_audius_proxy  (** Injected storage collision (Listing 2). *)
  | K_diamond_proxy  (** EIP-2535-style; ProxioN's known miss. *)
  | K_library_caller  (** DELEGATECALL outside fallback; not a proxy. *)
  | K_plain  (** Ordinary logic/token/counter contracts. *)
  | K_broken  (** Malformed bytecode that aborts emulation. *)

val kind_to_string : kind -> string

type label = {
  l_address : Evm.Address.t;
  l_year : int;
  l_kind : kind;
  l_is_proxy : bool;  (** Ground truth under the paper's definition. *)
  l_standard : Proxion.Standard_classify.standard option;
  l_has_source : bool;
  l_has_tx : bool;
  l_logics : Evm.Address.t list;  (** Ground-truth logic history. *)
  l_func_collision : bool;
  l_storage_collision : bool;
  l_upgrades : int;
}

type config = {
  total : int;  (** Population size (default 36_000 = 1/1000 mainnet). *)
  seed : int;
  storage_boost : float;
      (** Over-representation factor for storage collisions so their yearly
          shape survives scaling (default 100; reported counts are divided
          back — see EXPERIMENTS.md). *)
  function_injection_share : float;
      (** Fraction of function collisions that are fresh (non-clone) pairs;
          the paper reports 1.3% (1 - 98.7%). *)
  broken_rate : float;
      (** Fraction of contracts with malformed bytecode, producing the
          §7.1-style emulation error rate (default 0.01). *)
  chain_id : int;
      (** EVM chain id of the generated chain (default 1 = Ethereum
          mainnet; the §8.2 multichain survey varies this). *)
}

val default_config : config
val quick_config : config
(** A 2,000-contract landscape for tests and smoke runs. *)

type t = {
  chain : Chain.t;
  labels : label list;  (** Deployment order. *)
  source_of : Proxion.Analysis.source_lookup;
  config : config;
}

val generate : config -> t

val fingerprint : t -> string
(** The landscape's identity: 0x-prefixed hex Keccak-256 over its
    generation config, then every label's address and its code's
    {!Chain.code_hash}, in deployment order.  Journals stamp it on what
    they commit and refuse to resume against a landscape whose
    fingerprint differs.  Advances neither add labels nor touch generated
    code, so an advanced landscape keeps the fingerprint it was generated
    with. *)

(** {1 Streaming generation}

    The generator is internally a resumable cursor over the deployment
    sequence; the streaming API drains it batch-by-batch so the landscape
    never has to be resident in full.  [generate] is a drain wrapper over
    the same cursor, so a fully drained stream is byte-identical —
    same labels in the same order, same addresses, same code, same chain
    state — to the materialized output for the same config, at any batch
    size (the random sequence is consumed per deployment step, never per
    batch).

    After analyzing a batch, callers scanning at bounded RSS hand each spec
    back to {!evict}, which frees the contract's account and index entries
    unless the spec is pinned ([sp_pinned]): shared logic pools, mega-clone
    targets, and injected collision logics stay resident because later
    deployments delegate to them. *)

type spec = {
  sp_label : label;
  sp_code : string;  (** Runtime bytecode, captured at the batch boundary. *)
  sp_pinned : bool;  (** Still referenced by later generation; never evict. *)
}

type stream

val open_stream : config -> stream
val next_batch : stream -> batch:int -> spec array option
(** Deploy until at least [batch] more labels exist (a step can record more
    than one label — e.g. a honeypot deploys its logic too), then return
    them.  [None] once the population is exhausted. *)

val stream_chain : stream -> Chain.t
val stream_config : stream -> config
val stream_source_of : stream -> Proxion.Analysis.source_lookup
val stream_emitted : stream -> int
(** Specs returned so far — monotonically approaches roughly
    [config.total]. *)

val evict : stream -> spec -> unit
(** Free a drained, analyzed spec's footprint (account, source entry,
    index entries).  No-op on pinned specs.  Owner-side: only call between
    analysis batches, never while worker views are live. *)

val label_of : t -> Evm.Address.t -> label option
val proxies : t -> label list
val by_year : t -> (int * label list) list
(** Labels grouped by deployment year, ascending. *)
