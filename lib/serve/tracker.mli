(** The incremental dirty-set tracker.

    Derives, from each stored per-subject report, the dependencies its
    analysis has on chain state — and from a chain advance (mined
    blocks + direct storage writes), the deployment-ordered set of
    subjects whose stored results can no longer be trusted.  The
    contract: re-analyzing exactly the dirty set against the advanced
    chain, with the dedup cache invalidated per {!invalidation_hashes},
    patches the store into byte-identity with a cold full re-run.

    Dependency model (per subject):
    - {b Height}: a resolved [Storage_slot] proxy's logic history comes
      from Algorithm 1's binary search over [0, head] — its API-call
      accounting (and possibly its history) changes whenever the head
      moves, so slot-source proxies are dirty on {e every} advance.
      They are re-resolved from the analyzer's Algorithm 1 record
      ({!Proxion.Analyzer.drop_records}), with no archive call unless
      the advance wrote them.  [Computed]-source proxies (beacons,
      diamonds) read other contracts' storage the report does not
      enumerate; they are conservatively height-dirty too.
    - {b Own storage}: the emulation probe loads the subject's own
      slots, so any direct write to the subject dirties it — and,
      because probe verdicts are shared across identical bytecodes,
      dirties {e every} holder of the same code hash (keeping the dedup
      cache's owner semantics aligned with a cold run).
    - {b Pair partners}: collision verification executes against the
      live proxy/logic pair, so a write to either side dirties the
      proxy.

    [Hardcoded]-source proxies and non-proxies with untouched storage
    stay clean — in the synthetic landscape that is the bulk of the
    population, which is where the incremental speedup comes from. *)

val dirty :
  reports:Proxion.Analysis.contract_report list ->
  writes:Evm.Address.t list ->
  Proxion.Analysis.contract_report list
(** The dirty subset of [reports] (deployment order preserved) after an
    advance that mined at least one block and wrote the storage of
    [writes]. *)

val invalidation_hashes :
  dirty:Proxion.Analysis.contract_report list -> string list
(** The raw code hashes whose dedup-cache entries must be dropped
    before re-analysis: every hash held by a dirty subject.  The dirty
    rules guarantee all holders of such a hash are dirty, so the
    deployment-order owner re-probes first and repopulates the entry
    exactly as a cold run would. *)
