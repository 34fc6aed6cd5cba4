(* A ratchet on the deterministic counters of one scan pass.  Wall time
   moves with the host; these do not, so CI can hold them exactly: a
   change that makes the pass do more work fails here, and one that
   moves a figure on purpose updates it and says why. *)

module Generate = Dataset.Generate
module Pipeline = Proxion.Pipeline

let check_i = Alcotest.(check int)

(* Minor words allocated per contract.  A pass alone in its process
   measures 2,500.8 (less once other tests have warmed the per-domain
   caches); the ceiling leaves 3% of headroom.  A pass whose Algorithm 1
   read each word through a JSON-RPC hex string round trip measured
   2,753.4 (2,906.8 with hex codecs that built each string twice), and
   one that also re-hashed every code through a permutation that
   allocates measured 3,262. *)
let minor_words_ceiling = 2_576.0

(* 400 generated deployments plus their shared logic contracts, analyzed
   at one domain, so the per-domain counters below see the whole pass
   whatever DOMAINS says. *)
let scan_pass ?(dedup = true) () =
  let land_ =
    Generate.generate { Generate.default_config with total = 400; seed = 42 }
  in
  Proxion.Analyzer.create
    ~config:Pipeline.Config.(default |> with_domains 1 |> with_dedup dedup)
    ~chain:land_.Generate.chain ~source:land_.Generate.source_of ()

let test_scan_counters () =
  (* A cleared selector memo makes the permutation count independent of
     the tests that ran before. *)
  let t = scan_pass () in
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
      per_contract minor_words_ceiling;
  (* The same pass on an instrumented registry: the node counts each of
     Algorithm 1's reads as one [eth_getStorageAt] request, the series
     watch's api_calls_per_contract reads.  The other 72 archive calls
     are [resolve_slot]'s direct reads, which no request carries. *)
  let registry = Obs.Metrics.create () in
  let t = scan_pass () in
  Proxion.Analyzer.instrument registry t;
  Proxion.Analyzer.submit_all t;
  Proxion.Analyzer.run t;
  let storage_requests =
    Option.bind (Obs.Metrics.find registry "proxion_api_method_calls_total")
      (Obs.Metrics.value ~labels:[ ("method", "eth_getStorageAt") ] registry)
  in
  check_i "archive calls, instrumented" 711
    (Proxion.Analyzer.report t).Pipeline.stats.Pipeline.s_api_calls;
  Alcotest.(check (option (float 0.0)))
    "eth_getStorageAt requests served" (Some 639.0) storage_requests

(* The same contracts with dedup off, as the emulate benchmark runs them:
   every contract is probed, so the steps are the pass's whole emulation
   cost, while the archive calls, which dedup never saves, stay the
   scan pass's. *)
let test_emulate_counters () =
  let t = scan_pass ~dedup:false () in
  Proxion.Analyzer.submit_all t;
  Proxion.Analyzer.run t;
  let stats = (Proxion.Analyzer.report t).Pipeline.stats in
  check_i "contracts" 459 stats.Pipeline.s_analyzed;
  check_i "dedup hits" 0 stats.Pipeline.s_dedup_hits;
  check_i "archive calls" 711 stats.Pipeline.s_api_calls;
  check_i "EVM steps" 13_187 stats.Pipeline.s_emulation_steps

(* What a journaled daemon writes: the base snapshot once, then per
   advance a delta of what it changed.  A 400-contract daemon (460
   subjects) makes three advances of the default script.  Each delta
   holds the re-analyzed entries and the analyzer's checkpoint, about a
   quarter of the base, so a whole-store commit, which appends more than
   the base on every advance, fails here.  Each framed record costs 18
   bytes beyond its payload (a record and a commit header), the file's
   header 9.

   Each advance also pins the work it caused: the archive calls on the
   chain's counter and the subjects re-analyzed.  The tracker marks
   every slot proxy dirty, so the last advance re-read every proxy's
   history, and the store's archive calls equal that advance's. *)
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
      let calls () = Chain.api_call_count land_.Generate.chain in
      let base = size () in
      let advances =
        List.init 3 (fun _ ->
            let bytes0 = size () and calls0 = calls () in
            let r = Serve.Daemon.advance d in
            (size () - bytes0, calls () - calls0, r.Serve.Daemon.adv_dirty))
      in
      let stats =
        (Serve.Store.report (Serve.Daemon.store d)
           ~unique_codes:(Serve.Daemon.unique_codes d))
          .Pipeline.stats
      in
      Serve.Daemon.stop d;
      check_i "journal after the base snapshot" 314_743 base;
      List.iter2
        (fun (i, bytes, api, dirty) (n, calls, dirtied) ->
          check_i (Printf.sprintf "bytes appended by advance %d" i) bytes n;
          check_i (Printf.sprintf "archive calls of advance %d" i) api calls;
          check_i
            (Printf.sprintf "dirty subjects of advance %d" i)
            dirty dirtied)
        [
          (1, 79_244, 774, 36); (2, 82_289, 783, 37); (3, 85_334, 858, 38);
        ]
        advances;
      check_i "store archive calls" 858 stats.Pipeline.s_api_calls;
      check_i "store EVM steps" 3_602 stats.Pipeline.s_emulation_steps)

let suite =
  [
    Alcotest.test_case "scan pass counters" `Quick test_scan_counters;
    Alcotest.test_case "watch advance commit bytes" `Quick test_commit_bytes;
    Alcotest.test_case "emulate pass counters" `Quick test_emulate_counters;
  ]
