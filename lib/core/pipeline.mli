(** The two names the benchmark harness (proxbench/) still uses for the
    analysis layer: its {!Config} and its one-shot {!analyze}.  Both are
    aliases; the definitions are {!Analysis.Config} and
    {!Analyzer.analyze}, and every report type is {!Analysis}'s.  This
    module goes with the next change to the benchmark (ROADMAP item 4),
    which renames those call sites. *)

module Config = Analysis.Config

val analyze :
  ?config:Config.t ->
  ?addresses:Evm.Address.t list ->
  chain:Chain.t ->
  source:Analysis.source_lookup ->
  unit ->
  Analysis.report
(** {!Analyzer.analyze}. *)
