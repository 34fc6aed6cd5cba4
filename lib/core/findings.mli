(** Human-readable security findings distilled from an
    {!Analysis.report} — the audit-tool face of ProxioN.

    Each finding carries the contracts involved, the evidence the analysis
    produced (colliding selectors, slot typings, verification outcome),
    and a severity that follows the paper's exploitability reasoning:
    verified storage collisions and honeypots are what adversaries
    actually exploited (§2.3), unverified candidates and benign
    function collisions are informational. *)

type severity = Critical | High | Medium | Info
(** Declared most severe first, so [compare] ranks severities: [compare
    a b < 0] when [a] is the more severe.  The findings sort and the
    daemon's [min_severity] filter both order by it. *)

val severity_to_string : severity -> string
(** ["CRITICAL"], ["HIGH"], ["MEDIUM"] or ["INFO"]. *)

val severity_of_string : string -> severity option
(** The inverse of {!severity_to_string}, in any letter case; [None] for
    any other string. *)

type finding = {
  f_severity : severity;
  f_title : string;
  f_proxy : Evm.Address.t;
  f_logic : Evm.Address.t;
  f_detail : string;
}

val of_report : Analysis.report -> finding list
(** Findings sorted most-severe first:
    - [Critical]: storage collision with a verified exploit transaction;
    - [High]: honeypot-shaped function collision;
    - [Medium]: unverified storage-collision candidate on a sensitive slot;
    - [Info]: remaining function collisions (e.g. benign clone
      collisions) and non-sensitive storage candidates. *)

val render : ?limit:int -> finding list -> string
(** Pretty text report; [limit] truncates (default: everything). *)

val to_json : finding list -> Report.Json.t
