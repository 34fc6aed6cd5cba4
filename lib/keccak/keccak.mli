(** Keccak-256 as used by Ethereum.

    This is the original Keccak submission (multi-rate padding byte [0x01]),
    not the finalized SHA3-256 (padding byte [0x06]).  Ethereum uses it for
    function selectors, storage-slot constants (EIP-1967, EIP-1822), contract
    address derivation, and everywhere else a hash appears. *)

val digest : string -> string
(** [digest msg] is the 32-byte Keccak-256 hash of [msg]. *)

val digest_hex : string -> string
(** [digest_hex msg] is {!digest} encoded as 0x-prefixed lowercase hex. *)

val selector : string -> string
(** [selector prototype] is the 4-byte Ethereum function selector: the first
    four bytes of [digest prototype], e.g.
    [selector "transfer(address,uint256)" = "\xa9\x05\x9c\xbb"]. *)

val selector_hex : string -> string
(** 0x-prefixed hex form of {!selector}. *)

val permutations : unit -> int
(** Keccak-f permutations run so far on {e this} domain, one per absorbed
    136-byte block: a deterministic work counter for tests that pin how
    much a pass hashes.  The count is per domain ([Domain.DLS]), like
    {!Memo}'s. *)

(** Memoized selector hashing for the analysis hot path.

    The collision stages hash the same few hundred function prototypes over
    and over (once per proxy/logic pair); a memo table turns those repeat
    hashes into a string lookup.  The table lives in domain-local storage
    ([Domain.DLS]), so each worker domain has its own — lookups are
    lock-free and safe under domain parallelism by construction. *)
module Memo : sig
  type stats = { hits : int; misses : int }

  val selector : string -> string
  (** Same result as {!Keccak.selector}, memoized per domain. *)

  val stats : unit -> stats
  (** Hit/miss counters of {e this} domain's table. *)

  val reset : unit -> unit
  (** Clear this domain's table and counters (benchmark use). *)
end
