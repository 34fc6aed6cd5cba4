(** The §7 landscape experiments: Figure 2 (availability), Figure 4
    (proxy/logic pairs by source availability), Table 3 (collisions per
    year), Figure 5 (clone skew), Table 4 (standards), Figure 6
    (upgrades).  All are computed by analyzing a generated landscape
    with {!Proxion.Analyzer} and aggregating its report against the
    deployment-year labels. *)

type t = {
  land_ : Dataset.Generate.t;
  report : Proxion.Analysis.report;
}

val of_parts : Dataset.Generate.t -> Proxion.Analysis.report -> t
(** Pair a generated landscape with a report produced
    separately — e.g. by a checkpointed {!Proxion.Analyzer} run driven
    from the CLI — so every figure below can read from it. *)

val prepare : ?config:Dataset.Generate.config -> unit -> t
(** Generate the landscape (default {!Dataset.Generate.default_config})
    and analyze it once with {!Proxion.Analyzer.analyze} under
    {!Proxion.Analysis.Config.default}; every figure below reads from
    this. *)

val fig2 : t -> string
(** Cumulative alive contracts per year split by {source?} x {tx?}. *)

val fig4 : t -> string
(** Cumulative detected proxy/logic pairs per year split by which side has
    source available. *)

val table3 : t -> string
(** Function and storage collisions per deployment year as detected by the
    pipeline, with the mainnet-scale estimates obtained by undoing the
    storage-boost factor. *)

val fig5 : t -> string
(** Duplicate distribution of detected proxies and of their logic
    contracts (clone counts, descending). *)

val table4 : t -> string
(** Detected proxies per design standard, with Table 4's percentages. *)

val fig6 : t -> string
(** Histogram of per-proxy upgrade counts from logic resolution. *)

val summary : t -> string
(** Headline §7.2 numbers: proxy share, hidden proxies, analysis success
    rate, pair counts. *)

val upgrade_authority : t -> string
(** Who can upgrade each detected proxy (Salehi et al.'s question, §9.1),
    answered dynamically by {!Proxion.Upgrade_auth}: immutable minimal
    proxies, access-gated upgrades, and the dangerous open-to-anyone
    setters the dataset injects. *)

val render : ?findings:int -> t -> string
(** What [proxion scan] prints: {!summary}, {!fig2}, {!fig4}, {!table3},
    {!fig5}, {!table4}, {!fig6} and {!upgrade_authority}, a blank line
    apart, then, when [findings] (default 0) is positive, the top
    [findings] of {!Proxion.Findings.render}.  [test/golden/paper/scan.txt]
    holds it for the default [scan]. *)
