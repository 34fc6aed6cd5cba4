(** Finding every logic contract ever associated with a proxy (§4.3).

    Minimal proxies hard-code a single logic address in their bytecode.
    Slot-based proxies store it in a storage slot; ProxioN recovers the full
    history of that slot with Algorithm 1 — a divide-and-conquer search over
    block heights that only queries [getStorageAt] at range endpoints,
    splitting a range exactly when its endpoint values differ.  Against a
    15-million-block chain this takes tens of API calls instead of millions
    (§6.1 reports an average of 26). *)

type resolution = {
  current : Evm.Address.t option;  (** Logic at head height (None if unset). *)
  historical : Evm.Address.t list;
      (** Every non-zero address ever stored, oldest first. *)
  api_calls : int;  (** getStorageAt calls Algorithm 1 spent. *)
  upgrade_count : int;
      (** Number of logic-address changes after the first assignment
          (Figure 6's per-proxy upgrade count). *)
}

val algorithm1 :
  ?transport:Resilience.Transport.t ->
  Chain.t -> Evm.Address.t -> slot:U256.t -> lower:int -> upper:int -> U256.Set.t
(** The paper's Algorithm 1 verbatim: the set of values the slot held at any
    height in [lower, upper], assuming values are not reused (§4.3).  The
    storage probes are typed {!Chain_rpc.storage_at} requests sent through
    [transport] (default: a pass-through
    {!Resilience.Transport.direct} over [chain]), so transient archive
    faults are retried per batch entry; an exhausted or permanently
    rejected probe raises {!Resilience.Transport.Rpc_error}. *)

val resolve_slot :
  ?transport:Resilience.Transport.t ->
  Chain.t -> Evm.Address.t -> slot:U256.t -> resolution
(** Run Algorithm 1 over the whole chain and order the found addresses by
    their first appearance. *)

val resolve :
  ?transport:Resilience.Transport.t ->
  ?probed:Evm.Address.t ->
  Chain.t -> Evm.Address.t -> Proxy_detect.target_source -> resolution
(** Dispatch on how the proxy finds its logic: hard-coded targets resolve to
    themselves with zero API calls; slot-based targets run Algorithm 1
    through [transport]; computed targets (beacons, facets) resolve to the
    [probed] target the emulation observed, when given — history is
    invisible to the slot search for them. *)
