(* A ratchet on the deterministic counters of one scan pass.  Wall time
   moves with the host; these do not, so CI can hold them exactly: a
   change that makes the pass do more work fails here, and one that
   moves a figure on purpose updates it and says why. *)

module Generate = Dataset.Generate
module Pipeline = Proxion.Pipeline

let check_i = Alcotest.(check int)

(* Minor words allocated per contract.  A pass alone in its process
   measures 2,909 (less once other tests have warmed the per-domain
   caches); the ceiling leaves 3% of headroom.  A pass that re-hashed
   every code through a permutation that allocates measured 3,262. *)
let minor_words_ceiling = 3_000.0

let test_scan_counters () =
  (* 400 generated deployments plus their shared logic contracts. *)
  let land_ =
    Generate.generate { Generate.default_config with total = 400; seed = 42 }
  in
  (* One domain, so the per-domain counters below see the whole pass
     whatever DOMAINS says; a cleared selector memo makes the permutation
     count independent of the tests that ran before. *)
  let t =
    Proxion.Analyzer.create
      ~config:Pipeline.Config.(default |> with_domains 1)
      ~chain:land_.Generate.chain ~source:land_.Generate.source_of ()
  in
  Keccak.Memo.reset ();
  let perms0 = Keccak.permutations () in
  let words0 = Gc.minor_words () in
  Proxion.Analyzer.submit_all t;
  Proxion.Analyzer.run t;
  let words = Gc.minor_words () -. words0 in
  let perms = Keccak.permutations () - perms0 in
  let stats = (Proxion.Analyzer.report t).Pipeline.stats in
  check_i "contracts" 459 stats.Pipeline.s_analyzed;
  check_i "archive calls (Algorithm 1)" 711 stats.Pipeline.s_api_calls;
  check_i "EVM steps" 3_915 stats.Pipeline.s_emulation_steps;
  check_i "dedup hits" 310 stats.Pipeline.s_dedup_hits;
  (* Probe calldata and selector-memo misses only: every code hash comes
     from [Chain.code_hash], which hashed each code at registration. *)
  check_i "Keccak-f permutations" 189 perms;
  let per_contract = words /. float_of_int stats.Pipeline.s_analyzed in
  Printf.printf "minor words per contract: %.1f\n" per_contract;
  if per_contract > minor_words_ceiling then
    Alcotest.failf "%.1f minor words per contract, above the ceiling of %.0f"
      per_contract minor_words_ceiling

let suite =
  [ Alcotest.test_case "scan pass counters" `Quick test_scan_counters ]
