(** Finding every logic contract ever associated with a proxy (§4.3).

    Minimal proxies hard-code a single logic address in their bytecode.
    Slot-based proxies store it in a storage slot; ProxioN recovers the full
    history of that slot with Algorithm 1 — a divide-and-conquer search over
    block heights that only queries [getStorageAt] at range endpoints,
    splitting a range exactly when its endpoint values differ.  Against a
    15-million-block chain this takes tens of API calls instead of millions
    (§6.1 reports an average of 26).

    A resolution that read the archive also yields its {!record}, the
    slot's change points; {!replay} answers the same bisection from it
    at a later head, with no archive call, for a proxy whose slot took
    no write since. *)

type resolution = {
  current : Evm.Address.t option;  (** Logic at head height (None if unset). *)
  historical : Evm.Address.t list;
      (** Every non-zero address ever stored, oldest first. *)
  api_calls : int;
      (** What a cold resolution at this head spends (§6.1): one
          [getStorageAt] for each distinct height Algorithm 1 reads, plus
          the head read.  A {!replay} reports the same figure without
          making the calls, so this need not be the calls made. *)
  upgrade_count : int;
      (** Number of logic-address changes after the first assignment
          (Figure 6's per-proxy upgrade count). *)
}

(** The step function a resolution's reads pin: Algorithm 1 splits a
    range until its endpoints agree, so two of its reads that differ
    with none between them are one block apart, and the first height of
    each run of equal values among its reads, sorted by height, is an
    exact change point. *)
type record = {
  slot : U256.t;
  changes : (int * U256.t) list;
      (** [(height, value)] of each change point, ascending; the first
          is at height 0. *)
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
  Chain.t -> Evm.Address.t -> slot:U256.t -> resolution * record
(** Run Algorithm 1 over the whole chain and order the found addresses by
    their first appearance: the lowest height at which Algorithm 1's own
    reads saw each, which is exact when values are not reused.  The one
    read beyond Algorithm 1's is the slot at the head, for [current]; it
    is counted in [api_calls].  Also returns the reads' {!record}. *)

val replay : record -> head:int -> resolution
(** The same bisection over [[0, head]], each height answered from the
    record instead of the archive: no archive call is made, and
    {!Chain.api_call_count} and {!Chain.method_call_counts} do not move.
    It returns what {!resolve_slot} returns at [head] — [current],
    [historical], [upgrade_count] and [api_calls] alike — when two
    conditions hold.  The slot took no write since the recording: [head]
    is later than the recording head with no write between, or earlier
    but above every change point (a rewind that reverted no write).  And
    no value change hides between two of the recording's reads that
    agree, which is the assumption under which Algorithm 1 finds every
    logic at all: values are not reused (§4.3).  [api_calls] counts the
    distinct heights the bisection reads, plus the head read; by the
    transport's accounting identity that is what the live run's counter
    shows. *)

val resolve :
  ?transport:Resilience.Transport.t ->
  ?probed:Evm.Address.t ->
  Chain.t -> Evm.Address.t -> Proxy_detect.target_source -> resolution
(** Dispatch on how the proxy finds its logic: hard-coded targets resolve to
    themselves with zero API calls; slot-based targets run Algorithm 1
    through [transport]; computed targets (beacons, facets) resolve to the
    [probed] target the emulation observed, when given — history is
    invisible to the slot search for them. *)
