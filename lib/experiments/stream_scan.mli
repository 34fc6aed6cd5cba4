(** Incremental aggregates for streamed bounded-RSS scans.

    A streamed scan ({!Dataset.Generate.open_stream} + eviction) never
    holds the full landscape or the full report, so the §7 experiment
    modules — which want both in memory — do not apply.  This folds the
    headline landscape/detection numbers batch-by-batch instead: labels
    come from the drained specs, detections from the per-batch
    {!Proxion.Analyzer.drain_results} reports.

    Semantics note: a streamed scan analyzes each subject against the chain
    as of its {e batch boundary}, not the final chain.  The subject's own
    code, storage history and delegate targets are complete by then, so
    proxy-detection and collision verdicts match a materialized run; only
    aggregates that observe {e later} traffic (a shared logic's incoming
    delegate transactions, archive-query call counts) can differ.  Within
    the streamed path itself everything stays deterministic and
    DOMAINS-independent. *)

type t

val create : unit -> t

val absorb :
  t -> Dataset.Generate.spec array -> Proxion.Analysis.contract_report list ->
  unit
(** Fold one batch: the specs drained from the stream and the per-contract
    reports the analyzer completed for them.  Commutative counters only, so
    the aggregate is identical at any DOMAINS. *)

val note_evicted : t -> int -> unit
val note_skipped : t -> int -> unit

val summary : t -> string
(** Rendered metric table (deterministic; safe to diff across runs). *)

val peak_rss_kb : unit -> int option
(** This process's peak resident set size (VmHWM) in KiB, from
    [/proc/self/status]; [None] where unsupported.  A flat value across
    growing [--total]s is the bounded-RSS acceptance signal. *)
