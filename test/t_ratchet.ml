(* A ratchet on the deterministic counters of one scan pass.  Wall time
   moves with the host; these do not, so CI can hold them exactly: a
   change that makes the pass do more work fails here, and one that
   moves a figure on purpose updates it and says why. *)

module Generate = Dataset.Generate
module Analysis = Proxion.Analysis

let check_i = Alcotest.(check int)

(* Minor words allocated per contract.  A pass alone in its process
   measures 2,518.3 (less once other tests have warmed the per-domain
   caches); the ceiling leaves 2.3% of headroom.  It measured 2,508.4
   before the analyzer kept each slot proxy's Algorithm 1 record.  A
   pass whose Algorithm 1 read each word through a JSON-RPC hex string
   round trip measured 2,753.4 (2,906.8 with hex codecs that built each
   string twice), and one that also re-hashed every code through a
   permutation that allocates measured 3,262. *)
let minor_words_ceiling = 2_576.0

(* 400 generated deployments plus their shared logic contracts, analyzed
   at one domain, so the per-domain counters below see the whole pass
   whatever DOMAINS says. *)
let scan_pass ?(dedup = true) () =
  let land_ =
    Generate.generate { Generate.default_config with total = 400; seed = 42 }
  in
  Proxion.Analyzer.create
    ~config:Analysis.Config.(default |> with_domains 1 |> with_dedup dedup)
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
  let stats = (Proxion.Analyzer.report t).Analysis.stats in
  check_i "contracts" 459 stats.Analysis.s_analyzed;
  check_i "archive calls (Algorithm 1)" 675 stats.Analysis.s_api_calls;
  check_i "EVM steps" 3_915 stats.Analysis.s_emulation_steps;
  check_i "dedup hits" 310 stats.Analysis.s_dedup_hits;
  (* Probe calldata and selector-memo misses only: every code hash comes
     from [Chain.code_hash], which hashed each code at registration. *)
  check_i "Keccak-f permutations" 189 perms;
  let per_contract = words /. float_of_int stats.Analysis.s_analyzed in
  Printf.printf "minor words per contract: %.1f\n" per_contract;
  if per_contract > minor_words_ceiling then
    Alcotest.failf "%.1f minor words per contract, above the ceiling of %.0f"
      per_contract minor_words_ceiling;
  (* The same pass on an instrumented registry: the node counts each of
     Algorithm 1's reads as one [eth_getStorageAt] request, the series
     watch's api_calls_per_contract reads.  The other 36 archive calls
     are [resolve_slot]'s head reads, one per slot proxy, which no
     request carries. *)
  let registry = Obs.Metrics.create () in
  let t = scan_pass () in
  Proxion.Analyzer.instrument registry t;
  Proxion.Analyzer.submit_all t;
  Proxion.Analyzer.run t;
  let storage_requests =
    Option.bind (Obs.Metrics.find registry "proxion_api_method_calls_total")
      (Obs.Metrics.value ~labels:[ ("method", "eth_getStorageAt") ] registry)
  in
  check_i "archive calls, instrumented" 675
    (Proxion.Analyzer.report t).Analysis.stats.Analysis.s_api_calls;
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
  let stats = (Proxion.Analyzer.report t).Analysis.stats in
  check_i "contracts" 459 stats.Analysis.s_analyzed;
  check_i "dedup hits" 0 stats.Analysis.s_dedup_hits;
  check_i "archive calls" 675 stats.Analysis.s_api_calls;
  check_i "EVM steps" 13_187 stats.Analysis.s_emulation_steps

(* What a journaled daemon writes: the base snapshot once, then per
   advance a delta of what it changed.  A 400-contract daemon (460
   subjects) makes three advances of the default script.  Each delta
   holds the re-analyzed entries that differ from the stored ones and
   the analyzer's checkpoint, about a fifth of the base, so a
   whole-store commit, which appends more than the base on every
   advance, fails here, and so does one that journals every re-analyzed
   entry (79,244 / 82,289 / 85,334 bytes).  Each framed record costs 18
   bytes beyond its payload (a record and a commit header), the file's
   header 9.

   Each advance also pins the work it caused: the archive calls on the
   chain's counter, the [eth_getStorageAt] requests the node served, and
   the subjects re-analyzed.  The tracker marks every slot proxy dirty,
   but only the proxies an advance wrote or deployed read the archive;
   every other one replays its Algorithm 1 record.  So the archive calls
   are those of the few live resolutions (each one's requests plus its
   head read), where re-reading every proxy's history cost 732 / 734 /
   801; the store still reports a cold run's 801. *)
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
          |> with_analysis Analysis.Config.(default |> with_domains 1)
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
      let requests () =
        let registry = Serve.Daemon.registry d in
        Option.bind (Obs.Metrics.find registry "proxion_api_method_calls_total")
          (Obs.Metrics.value ~labels:[ ("method", "eth_getStorageAt") ] registry)
        |> Option.fold ~none:0 ~some:int_of_float
      in
      let base = size () in
      let advances =
        List.init 3 (fun _ ->
            let bytes0 = size () and calls0 = calls () in
            let requests0 = requests () in
            let r = Serve.Daemon.advance d in
            ( size () - bytes0,
              calls () - calls0,
              requests () - requests0,
              r.Serve.Daemon.adv_dirty ))
      in
      let stats =
        (Serve.Store.report (Serve.Daemon.store d)
           ~unique_codes:(Serve.Daemon.unique_codes d))
          .Analysis.stats
      in
      Serve.Daemon.stop d;
      check_i "journal after the base snapshot" 314_743 base;
      List.iter2
        (fun (i, bytes, api, reqs, dirty) (n, calls, served, dirtied) ->
          check_i (Printf.sprintf "bytes appended by advance %d" i) bytes n;
          check_i (Printf.sprintf "archive calls of advance %d" i) api calls;
          check_i
            (Printf.sprintf "eth_getStorageAt requests of advance %d" i)
            reqs served;
          check_i
            (Printf.sprintf "dirty subjects of advance %d" i)
            dirty dirtied)
        [
          (1, 61_092, 53, 51, 36);
          (2, 65_319, 90, 87, 37);
          (3, 68_188, 91, 88, 38);
        ]
        advances;
      check_i "store archive calls" 801 stats.Analysis.s_api_calls;
      check_i "store EVM steps" 3_602 stats.Analysis.s_emulation_steps)

let suite =
  [
    Alcotest.test_case "scan pass counters" `Quick test_scan_counters;
    Alcotest.test_case "watch advance commit bytes" `Quick test_commit_bytes;
    Alcotest.test_case "emulate pass counters" `Quick test_emulate_counters;
  ]
