(** Bytecode-hash deduplication (§6.1, Figure 5).

    Most deployed contracts are byte-identical clones; ProxioN analyzes
    each unique bytecode once and reuses the result, which is what makes
    the 36-million-contract scan tractable.  This module provides the
    grouping primitive and the clone-distribution statistics behind
    Figure 5. *)

val group_by_code_hash :
  hash_of:(Evm.Address.t -> string) ->
  Evm.Address.t list ->
  (string * Evm.Address.t list) list
(** Groups addresses by the Keccak-256 of their runtime code, as
    [hash_of] gives it ([Chain.code_hash chain], the one source of code
    identity), in first-seen order; each group lists addresses in input
    order. *)

val duplicate_distribution :
  hash_of:(Evm.Address.t -> string) -> Evm.Address.t list -> int list
(** Clone counts per unique bytecode, sorted descending — the series
    Figure 5 plots on a log axis. *)
