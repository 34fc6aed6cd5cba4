(** The labeled collision corpus behind the Table 2 accuracy comparison.

    The paper hand-verifies every collision reported by any tool on the
    Smart Contract Sanctuary dataset (source-available contracts) and
    scores each tool's TP/FP/TN/FN.  This module builds the equivalent
    ground-truth corpus: proxy/logic pairs, all with Minisol source,
    deliberately mixing the cases the tools disagree about —

    - genuine storage collisions (Audius-style), some hidden behind
      diamond gating (ProxioN false negatives) and some without any
      transaction history (CRUSH false negatives);
    - storage-padding look-alikes (USCHunt false positives);
    - genuinely aligned pairs (true negatives);
    - library-call pairs with clashing slot typing (CRUSH false
      positives — they are not proxy pairs at all);
    - genuine function collisions from mined selector pairs, a few with
      emulation-hostile proxy bytecode (the paper's three ProxioN
      function-collision misses);
    - collision-free pairs. *)

type pair_label = {
  c_name : string;  (** A short description of the case. *)
  c_proxy : Evm.Address.t;
  c_logic : Evm.Address.t;
  c_gt_func : bool;  (** Ground truth: a function collision exists. *)
  c_gt_storage : bool;  (** Ground truth: an exploitable storage collision. *)
  c_has_tx : bool;  (** The pair has delegate-call transaction history. *)
}

type corpus = {
  chain : Chain.t;
  pairs : pair_label list;
  source_of : Proxion.Analysis.source_lookup;
}

val build : ?seed:int -> ?size_factor:int -> unit -> corpus
(** [size_factor] (default 1) scales the number of instances per case
    class; the default corpus has on the order of 200 storage-labeled and
    100 function-labeled pairs, mirroring the paper's 206 + 561 manually
    inspected instances at reduced scale. *)
