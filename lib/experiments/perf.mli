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
  algo1_avg_api_calls : float;
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

val render : numbers -> string
