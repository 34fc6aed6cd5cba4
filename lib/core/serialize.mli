(** JSON round-tripping for analysis results.

    Every converter pair satisfies [of_json (to_json v) = Ok v] with a
    structurally identical value — the property the analyzer's
    checkpoint relies on to make a resumed run byte-identical to an
    uninterrupted one.  Raw byte strings (selectors, code hashes) are
    hex-encoded; addresses and 256-bit words use their canonical 0x-hex
    forms.  Decoders read through the {!Report.Json} readers and never
    raise; a decoder ignores fields it does not know. *)

val hex_of_json : Report.Json.t -> (string, string) result
(** The raw bytes of a 0x-hex string. *)

val address_of_json : Report.Json.t -> (Evm.Address.t, string) result
(** A 0x-hex string of exactly 20 bytes. *)

val word_of_json : Report.Json.t -> (U256.t, string) result

val detection_to_json : Proxy_detect.t -> Report.Json.t
val detection_of_json : Report.Json.t -> (Proxy_detect.t, string) result

val verdict_to_json : Proxy_detect.verdict -> Report.Json.t
val verdict_of_json : Report.Json.t -> (Proxy_detect.verdict, string) result

val resolution_to_json : Logic_resolve.resolution -> Report.Json.t

val resolution_of_json :
  Report.Json.t -> (Logic_resolve.resolution, string) result

val func_collision_to_json : Func_collision.collision -> Report.Json.t

val func_collision_of_json :
  Report.Json.t -> (Func_collision.collision, string) result

val storage_collision_to_json : Storage_collision.collision -> Report.Json.t

val storage_collision_of_json :
  Report.Json.t -> (Storage_collision.collision, string) result

val pair_report_to_json : Analysis.pair_report -> Report.Json.t

val pair_report_of_json :
  Report.Json.t -> (Analysis.pair_report, string) result

val contract_report_to_json : Analysis.contract_report -> Report.Json.t

val contract_report_of_json :
  Report.Json.t -> (Analysis.contract_report, string) result

val entry_to_json : Analysis.entry -> Report.Json.t

val entry_of_json : Report.Json.t -> (Analysis.entry, string) result
(** One contract's report with its archive calls, as [report] and
    [api_calls]: the one record format of a checkpoint's [results] and of
    a daemon journal's [entries] and [upserted].  Both fields are
    required. *)

val stats_to_json : Analysis.stats -> Report.Json.t
val stats_of_json : Report.Json.t -> (Analysis.stats, string) result

val report_kind : string
(** The [kind] tag stamped on full-report documents,
    ["proxion.report"]. *)

val report_to_json : Analysis.report -> Report.Json.t
(** The full pipeline report (contracts + stats) — the machine-readable
    output the CLI's [--json] consumers read, the payload the daemon's
    store snapshots and query responses embed, and the equality witness
    the resume tests compare.  The document is stamped with
    [Report.Schema.version] and {!report_kind}. *)

val report_of_json : Report.Json.t -> (Analysis.report, string) result
(** Inverse of {!report_to_json}; rejects documents whose
    [schema_version] or [kind] differs from the current one. *)
