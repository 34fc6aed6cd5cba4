(** The daemon's hot result store.

    Holds one {!Proxion.Analysis.entry} per analyzed subject — the
    per-contract report plus the archive calls analyzing it cost, as the
    analyzer returned them — indexed by address, while preserving
    deployment order so {!report} reconstructs exactly the document a
    cold batch run would produce.  Incremental re-analysis {!upsert}s
    patched entries in place; aggregates (the full report, the findings
    list) are cached and recomputed lazily after any patch.

    All operations are serialized by an internal lock, so server worker
    domains may query while the coordinator patches. *)

type t

val create : unit -> t
val size : t -> int

val generation : t -> int
(** Number of increments applied ({!bump_generation}); 0 after the
    initial load. *)

val bump_generation : t -> unit
val set_generation : t -> int -> unit
val find : t -> Evm.Address.t -> Proxion.Analysis.entry option
val mem : t -> Evm.Address.t -> bool

val upsert : t -> Proxion.Analysis.entry -> unit
(** Insert (appending to deployment order) or replace in place. *)

val remove : t -> Evm.Address.t -> bool
(** Retract a subject's entry (reorg rollback: its deployment was
    orphaned).  Drops it from the deployment order and invalidates the
    aggregate caches; [false] when the address was not stored. *)

val reports : t -> Proxion.Analysis.contract_report list
(** Per-contract reports in deployment order. *)

val entries : t -> Proxion.Analysis.entry list
(** Entries in deployment order (snapshot serialization). *)

val report : t -> unique_codes:int -> Proxion.Analysis.report
(** The full report: {!Proxion.Analysis.report_of_entries} over the
    entries in deployment order ([unique_codes] comes from the live
    analyzer's dedup cache).  Byte-identical to a cold full run over the
    same chain state. *)

val findings : t -> unique_codes:int -> Proxion.Findings.finding list
(** Severity-ordered findings over {!report}, cached per generation. *)
