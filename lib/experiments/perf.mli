(** §6.1 — performance of the pipeline stages, measured on a landscape:
    proxy-check latency and throughput (paper: 6.4 ms, 156 contracts/s),
    getStorageAt calls per slot proxy under Algorithm 1 vs the naive
    per-block scan (paper: 26 calls on average), function-collision check
    latency (paper: 6.7 ms), storage-collision check latency, and the
    speedup from bytecode-hash deduplication. *)

type numbers = {
  contracts_checked : int;
  probe_ms_per_contract : float;
  probe_contracts_per_sec : float;
  algo1_proxies : int;
  algo1_api_calls : int;  (** Over all [algo1_proxies], head reads included. *)
  naive_api_calls : int;  (** One per block: the scan Algorithm 1 replaces. *)
  func_check_ms : float;
  storage_check_ms : float;
  pipeline_s_with_dedup : float;
  pipeline_s_without_dedup : float;
}

val run :
  ?config:Dataset.Generate.config -> ?clock:Obs.Clock.t -> unit -> numbers
(** [clock] (default {!Obs.Clock.real}) is the timing source for every
    wall-clock figure — a {!Obs.Clock.virtual_} clock makes the numbers
    deterministic for tests. *)

val render_archive_calls : numbers -> string
(** The two rows an archive-call count decides — Algorithm 1's
    [getStorageAt] calls per slot proxy and the naive per-block scan's —
    as their own table.  They are the same on every run;
    [test/golden/paper/perf.txt] holds them at [-n 4000]. *)

val render_timings : numbers -> string
(** The wall-clock rows, which change from run to run. *)
