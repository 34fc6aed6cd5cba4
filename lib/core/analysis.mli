(** Shared vocabulary of the analysis layer: the per-contract and
    per-pair report types every consumer reads, the aggregate statistics,
    and the {!Config} record that replaced the retired [Pipeline.run]
    entry point's optional arguments.  {!Pipeline} re-exports everything
    here under its historical names; {!Analyzer} produces the values. *)

type source_lookup = Evm.Address.t -> Minisol.Ast.contract option
(** The Etherscan stand-in: source for "verified" contracts, [None] for
    the hidden ones. *)

type analysis_method =
  | Source_source  (** Both sides verified: the Slither path. *)
  | Mixed  (** One side bytecode-only: the paper's novel coverage. *)
  | Bytecode_bytecode  (** Both hidden. *)

type pair_report = {
  p_proxy : Evm.Address.t;
  p_logic : Evm.Address.t;
  p_method : analysis_method;
  p_func_collisions : Func_collision.collision list;
  p_storage_collisions : Storage_collision.collision list;
  p_honeypot : bool;
      (** The function collision classifies as a honeypot (§2.3): the
          logic's colliding function baits the caller while the proxy's
          twin moves assets. *)
}

type contract_report = {
  r_address : Evm.Address.t;
  r_code_hash : string;
  r_detection : Proxy_detect.t;
  r_standard : Standard_classify.standard option;  (** Proxies only. *)
  r_resolution : Logic_resolve.resolution option;  (** Proxies only. *)
  r_pairs : pair_report list;
  r_dedup_hit : bool;  (** Detection reused from an identical bytecode. *)
}

type stats = {
  s_analyzed : int;
  s_proxies : int;
  s_emulation_errors : int;
  s_pairs : int;
  s_func_colliding_pairs : int;
  s_storage_colliding_pairs : int;
  s_verified_storage_pairs : int;
  s_honeypot_pairs : int;  (** Function-colliding pairs with honeypot shape. *)
  s_dedup_hits : int;
  s_unique_codes : int;
  s_api_calls : int;  (** getStorageAt calls spent by Algorithm 1. *)
  s_emulation_steps : int;  (** EVM instructions interpreted by probes. *)
}

type report = { contracts : contract_report list; stats : stats }

val is_proxy_report : contract_report -> bool
val proxies : report -> contract_report list

val compute_stats :
  dedup_hits:int ->
  unique_codes:int ->
  api_calls:int ->
  emulation_steps:int ->
  contract_report list ->
  stats
(** Aggregate the per-contract reports; the four counters come from the
    engine run that produced them. *)

(** Run configuration — one value threaded through the engine, the CLI,
    the benchmark harness and the experiments, replacing the optional
    argument soup of the retired [Pipeline.run] entry point. *)
module Config : sig
  type t = {
    verify_storage : bool;
        (** CRUSH-style exploit verification of storage-collision
            candidates (default [true]). *)
    dedup : bool;
        (** Reuse detection and pair-analysis results across identical
            bytecodes (default [true]). *)
    diamond_extension : bool;
        (** §8.2: re-probe probe-negative contracts with selectors
            harvested from their transaction history (default [false],
            matching the paper's evaluated system). *)
    batch_size : int;
        (** Contracts per scheduler batch (default 32). *)
    domains : int;
        (** Worker domains per batch (default 1 = sequential).  Any value
            produces byte-identical reports and checkpoints; larger values
            only change wall-clock time on multicore hosts.  Never
            checkpointed: a resumed run takes it from its caller. *)
  }

  val default : t
  val with_verify_storage : bool -> t -> t
  val with_dedup : bool -> t -> t
  val with_diamond_extension : bool -> t -> t
  val with_batch_size : int -> t -> t
  val with_domains : int -> t -> t

  val validate : t -> (t, Report.Validate.error) result
  (** The shared config gate ({!Report.Validate}): positive
      [batch_size] and [domains]. *)
end
