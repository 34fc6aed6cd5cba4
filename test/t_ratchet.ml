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

(* What a journaled daemon writes: the base snapshot once, then per
   advance a delta of what it changed.  A 400-contract daemon (460
   subjects) makes three advances of the default script.  Each delta
   holds the re-analyzed entries and the analyzer's checkpoint, about a
   quarter of the base, so a whole-store commit, which appends more than
   the base on every advance, fails here.  Each framed record costs 18
   bytes beyond its payload (a record and a commit header), the file's
   header 9. *)
let test_commit_bytes () =
  let path = Filename.temp_file "proxion_ratchet" ".journal" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let land_ =
        Generate.generate { Generate.default_config with total = 400; seed = 5 }
      in
      let config =
        Serve.Config.(
          default |> with_workers 1
          |> with_analysis Pipeline.Config.(default |> with_domains 1)
          |> with_journal (Some path)
          |> with_journal_fsync false)
      in
      let d =
        match Serve.Daemon.create ~config land_ with
        | Ok d -> d
        | Error e -> Alcotest.failf "daemon create failed: %s" e
      in
      let size () = (Unix.stat path).Unix.st_size in
      let base = size () in
      let appended =
        List.init 3 (fun _ ->
            let before = size () in
            ignore (Serve.Daemon.advance d);
            size () - before)
      in
      Serve.Daemon.stop d;
      check_i "journal after the base snapshot" 319_803 base;
      List.iter2
        (fun (i, want) n ->
          check_i (Printf.sprintf "bytes appended by advance %d" i) want n)
        [ (1, 79_761); (2, 82_818); (3, 85_875) ]
        appended)

let suite =
  [
    Alcotest.test_case "scan pass counters" `Quick test_scan_counters;
    Alcotest.test_case "watch advance commit bytes" `Quick test_commit_bytes;
  ]
