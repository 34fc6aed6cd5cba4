(** The interface through which the interpreter reaches world state.

    The chain library implements this over real blockchain state; the
    analysis layer implements a synthetic variant for emulating contracts in
    isolation (§4.2 of the paper).  Block-environment opcodes (NUMBER,
    TIMESTAMP, ...) read from {!block_info}, mirroring the paper's choice of
    evaluating them against the latest block. *)

type block_info = {
  number : int;
  timestamp : int;
  coinbase : Address.t;
  gas_limit : int;
  base_fee : U256.t;
  prev_randao : U256.t;
  chain_id : U256.t;
  block_hash : int -> U256.t;  (** Hash for a given block height. *)
}

val default_block : block_info
(** Mainnet-flavoured defaults: chain id 1, a recent block number, fixed
    coinbase — the "most probable values" strategy of §4.2. *)

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
  (** Mark the current state; returns a token for {!revert_to}. *)
  revert_to : int -> unit;
  (** Roll state back to a snapshot token (used on call failure/revert). *)
  block : block_info;
}

val in_memory : ?block:block_info -> unit -> t
(** A standalone in-memory world: empty accounts materialize on first touch.
    Snapshots use an undo journal, so nesting is cheap.  This is the host
    behind the paper's EVM emulation of contracts under test. *)

type admin = {
  commit : unit -> unit;
      (** Truncate the undo journal.  Without periodic commits the journal
          grows without bound (it pins every account record ever written),
          which is what capped landscape generation at small totals.  A
          commit invalidates any snapshot mark taken before it, so it may
          only run at quiescent points — between transactions, never while
          an interpreter frame holds a mark. *)
  drop_account : Address.t -> unit;
      (** Remove an account (code, storage, balance, nonce) from the world
          outright.  Requires an empty (committed) journal, or a later
          revert could resurrect the dropped record.  This is the eviction
          primitive behind streamed bounded-RSS scans. *)
}

val in_memory_admin : ?block:block_info -> unit -> t * admin
(** [in_memory] plus the owner-side control handle.  The admin operations
    are deliberately kept out of {!t}: overlays and other host implementors
    never see them, and only the state's owner (the chain) may compact. *)

val with_code : t -> Address.t -> string -> unit
(** [with_code host addr code] installs [code] at [addr] (convenience over
    [create_account]; overwrites any existing code). *)

val overlay : t -> t
(** [overlay base] is a copy-on-write view over [base]: reads fall through
    to [base], writes land in private override tables with their own undo
    journal, and [base] is never mutated.  Many overlays can share one base
    concurrently provided the base itself is no longer written — this is
    how each analysis worker domain gets a private writable host over the
    shared immutable chain snapshot.  While the overlay holds no write —
    as between probes, which revert theirs — every read is the base's
    read, with no lookup in the overlay's own tables.

    One documented approximation: [account_exists] reports a base account
    that is alive with {e empty} code as absent (the overlay cannot observe
    the base's liveness flag, only its code).  No dataset in this
    repository creates such accounts. *)
