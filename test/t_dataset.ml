module Generate = Dataset.Generate
module Spec = Dataset.Spec

let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* PRNG                                                                *)
(* ------------------------------------------------------------------ *)

let test_prng_determinism () =
  let a = Dataset.Prng.create 99 in
  let b = Dataset.Prng.create 99 in
  for _ = 1 to 100 do
    check_b "same stream" true (Dataset.Prng.next a = Dataset.Prng.next b)
  done;
  let c = Dataset.Prng.create 100 in
  check_b "different seed differs" false
    (Dataset.Prng.next (Dataset.Prng.create 99) = Dataset.Prng.next c)

let test_prng_bounds () =
  let rng = Dataset.Prng.create 1 in
  for _ = 1 to 1000 do
    let v = Dataset.Prng.int rng 7 in
    check_b "in range" true (v >= 0 && v < 7);
    let f = Dataset.Prng.float rng in
    check_b "float range" true (f >= 0.0 && f < 1.0)
  done

let test_prng_weighted () =
  let rng = Dataset.Prng.create 5 in
  let mutable_count = ref 0 in
  for _ = 1 to 2000 do
    match Dataset.Prng.pick_weighted rng [ ("a", 0.9); ("b", 0.1) ] with
    | "a" -> incr mutable_count
    | _ -> ()
  done;
  (* ~1800 expected; loose bounds. *)
  check_b "weights respected" true (!mutable_count > 1500 && !mutable_count < 2000)

(* ------------------------------------------------------------------ *)
(* Selector mining                                                     *)
(* ------------------------------------------------------------------ *)

let test_sig_mine () =
  let pairs = Dataset.Sig_mine.mine ~prefix:"t" ~count:3 () in
  check_i "three pairs" 3 (List.length pairs);
  List.iter
    (fun p ->
      check_b "distinct signatures" true (p.Dataset.Sig_mine.sig_a <> p.Dataset.Sig_mine.sig_b);
      check_b "selectors match" true
        (Keccak.selector p.Dataset.Sig_mine.sig_a = Keccak.selector p.Dataset.Sig_mine.sig_b);
      check_b "recorded selector" true
        (p.Dataset.Sig_mine.selector = Keccak.selector p.Dataset.Sig_mine.sig_a))
    pairs

let test_sig_mine_deterministic () =
  let a = Dataset.Sig_mine.mine ~prefix:"d" ~count:2 () in
  let b = Dataset.Sig_mine.mine ~prefix:"d" ~count:2 () in
  check_b "deterministic" true (a = b)

(* ------------------------------------------------------------------ *)
(* Landscape generation                                                *)
(* ------------------------------------------------------------------ *)

let small_config =
  { Generate.quick_config with Generate.total = 800; seed = 11 }

let land_ = lazy (Generate.generate small_config)

let test_population_size () =
  let l = Lazy.force land_ in
  let n = List.length l.Generate.labels in
  (* Injections may push slightly past the nominal total. *)
  check_b "close to configured total" true (n >= 700 && n <= 1000)

let test_determinism () =
  let a = Generate.generate { small_config with Generate.total = 150 } in
  let b = Generate.generate { small_config with Generate.total = 150 } in
  check_b "same labels" true
    (List.map (fun l -> l.Generate.l_address) a.Generate.labels
    = List.map (fun l -> l.Generate.l_address) b.Generate.labels)

let test_proxy_share () =
  let l = Lazy.force land_ in
  let n = List.length l.Generate.labels in
  let p = List.length (Generate.proxies l) in
  let share = float_of_int p /. float_of_int n in
  check_b
    (Printf.sprintf "proxy share %.2f near 0.542" share)
    true
    (share > 0.40 && share < 0.68)

let test_source_share () =
  let l = Lazy.force land_ in
  let n = List.length l.Generate.labels in
  let s = List.length (List.filter (fun x -> x.Generate.l_has_source) l.Generate.labels) in
  let share = float_of_int s /. float_of_int n in
  check_b (Printf.sprintf "source share %.2f near 0.18" share) true
    (share > 0.10 && share < 0.30)

let test_labels_consistent_with_chain () =
  let l = Lazy.force land_ in
  List.iter
    (fun lbl ->
      check_b "code exists" true
        (Chain.code_at l.Generate.chain lbl.Generate.l_address <> ""))
    l.Generate.labels

let test_source_registry_consistent () =
  let l = Lazy.force land_ in
  List.iter
    (fun lbl ->
      check_b "registry matches label" true
        (lbl.Generate.l_has_source = (l.Generate.source_of lbl.Generate.l_address <> None)))
    l.Generate.labels

let test_minimal_proxies_dominate () =
  let l = Lazy.force land_ in
  let proxies = Generate.proxies l in
  let minimal =
    List.filter (fun x -> x.Generate.l_kind = Generate.K_minimal_proxy) proxies
  in
  let share = float_of_int (List.length minimal) /. float_of_int (List.length proxies) in
  check_b (Printf.sprintf "minimal share %.2f near 0.89" share) true (share > 0.7)

let test_injected_collisions_have_ground_truth () =
  let l = Lazy.force land_ in
  let audius =
    List.filter (fun x -> x.Generate.l_kind = Generate.K_audius_proxy) l.Generate.labels
  in
  check_b "storage injections exist" true (audius <> []);
  List.iter
    (fun x -> check_b "labelled storage collision" true x.Generate.l_storage_collision)
    audius;
  let ownable =
    List.filter (fun x -> x.Generate.l_kind = Generate.K_ownable_clone) l.Generate.labels
  in
  List.iter
    (fun x -> check_b "ownable labelled func collision" true x.Generate.l_func_collision)
    ownable

let test_pipeline_recovers_ground_truth () =
  let l = Lazy.force land_ in
  let report =
    Proxion.Analyzer.analyze ~chain:l.Generate.chain ~source:l.Generate.source_of
      ()
  in
  let by_addr = Hashtbl.create 512 in
  List.iter
    (fun r -> Hashtbl.replace by_addr r.Proxion.Analysis.r_address r)
    report.Proxion.Analysis.contracts;
  let tp = ref 0 and fp = ref 0 and fn = ref 0 and diamond_misses = ref 0 in
  List.iter
    (fun lbl ->
      match Hashtbl.find_opt by_addr lbl.Generate.l_address with
      | None -> ()
      | Some r -> (
          let detected = Proxion.Analysis.is_proxy_report r in
          match (lbl.Generate.l_is_proxy, detected) with
          | true, true -> incr tp
          | true, false ->
              incr fn;
              if lbl.Generate.l_kind = Generate.K_diamond_proxy then
                incr diamond_misses
          | false, true -> incr fp
          | false, false -> ()))
    l.Generate.labels;
  check_i "no false positives" 0 !fp;
  (* All misses must be the documented diamond limitation. *)
  check_i "all misses are diamonds" !diamond_misses !fn;
  check_b "finds nearly everything" true (!tp > 0 && !fn <= 3);
  (* Honeypot classification discriminates: injected honeypots count,
     benign ownable-clone collisions do not. *)
  let injected_honeypots =
    List.length
      (List.filter (fun x -> x.Generate.l_kind = Generate.K_honeypot_proxy) l.Generate.labels)
  in
  let stats = report.Proxion.Analysis.stats in
  check_b
    (Printf.sprintf "honeypot pairs %d vs injected %d (func-colliding %d)"
       stats.Proxion.Analysis.s_honeypot_pairs injected_honeypots
       stats.Proxion.Analysis.s_func_colliding_pairs)
    true
    (stats.Proxion.Analysis.s_honeypot_pairs >= injected_honeypots
    && stats.Proxion.Analysis.s_honeypot_pairs
       < stats.Proxion.Analysis.s_func_colliding_pairs)

let test_emulation_error_rate () =
  let l = Lazy.force land_ in
  let report =
    Proxion.Analyzer.analyze
      ~config:
        { Proxion.Analysis.Config.default with verify_storage = false }
      ~chain:l.Generate.chain ~source:l.Generate.source_of ()
  in
  let n = report.Proxion.Analysis.stats.Proxion.Analysis.s_analyzed in
  let errors = report.Proxion.Analysis.stats.Proxion.Analysis.s_emulation_errors in
  let rate = float_of_int errors /. float_of_int n in
  (* broken_rate is 1%; allow generous sampling noise at 800 contracts. *)
  check_b (Printf.sprintf "error rate %.3f near broken_rate" rate) true
    (rate > 0.001 && rate < 0.04);
  (* Every emulation error is a deliberately broken contract. *)
  List.iter
    (fun r ->
      match r.Proxion.Analysis.r_detection.Proxion.Proxy_detect.verdict with
      | Proxion.Proxy_detect.Emulation_error _ -> (
          match Generate.label_of l r.Proxion.Analysis.r_address with
          | Some lbl ->
              check_b "error contracts are the broken ones" true
                (lbl.Generate.l_kind = Generate.K_broken)
          | None -> ())
      | _ -> ())
    report.Proxion.Analysis.contracts

let test_year_partition () =
  let l = Lazy.force land_ in
  let total = List.length l.Generate.labels in
  let sum =
    List.fold_left (fun acc (_, ls) -> acc + List.length ls) 0 (Generate.by_year l)
  in
  check_i "by_year partitions population" total sum

(* ------------------------------------------------------------------ *)
(* Accuracy corpus                                                     *)
(* ------------------------------------------------------------------ *)

let test_accuracy_corpus () =
  let corpus = Dataset.Accuracy.build () in
  let pairs = corpus.Dataset.Accuracy.pairs in
  check_b "substantial corpus" true (List.length pairs > 150);
  (* All pairs are source-available (Sanctuary-style). *)
  List.iter
    (fun p ->
      check_b "proxy source" true
        (corpus.Dataset.Accuracy.source_of p.Dataset.Accuracy.c_proxy <> None);
      check_b "logic source" true
        (corpus.Dataset.Accuracy.source_of p.Dataset.Accuracy.c_logic <> None))
    pairs;
  let positives_storage =
    List.filter (fun p -> p.Dataset.Accuracy.c_gt_storage) pairs
  in
  let positives_func = List.filter (fun p -> p.Dataset.Accuracy.c_gt_func) pairs in
  check_b "storage positives" true (List.length positives_storage >= 20);
  check_b "function positives" true (List.length positives_func >= 60);
  (* Hidden pairs exist (the CRUSH false-negative class). *)
  check_b "hidden storage positives" true
    (List.exists
       (fun p -> p.Dataset.Accuracy.c_gt_storage && not p.Dataset.Accuracy.c_has_tx)
       pairs)

let suite =
  [
    Alcotest.test_case "prng determinism" `Quick test_prng_determinism;
    Alcotest.test_case "prng bounds" `Quick test_prng_bounds;
    Alcotest.test_case "prng weighted" `Quick test_prng_weighted;
    Alcotest.test_case "sig mine" `Quick test_sig_mine;
    Alcotest.test_case "sig mine deterministic" `Quick test_sig_mine_deterministic;
    Alcotest.test_case "population size" `Slow test_population_size;
    Alcotest.test_case "generation deterministic" `Slow test_determinism;
    Alcotest.test_case "proxy share" `Slow test_proxy_share;
    Alcotest.test_case "source share" `Slow test_source_share;
    Alcotest.test_case "labels vs chain" `Slow test_labels_consistent_with_chain;
    Alcotest.test_case "source registry" `Slow test_source_registry_consistent;
    Alcotest.test_case "minimal proxies dominate" `Slow test_minimal_proxies_dominate;
    Alcotest.test_case "injected collisions labelled" `Slow
      test_injected_collisions_have_ground_truth;
    Alcotest.test_case "pipeline recovers ground truth" `Slow
      test_pipeline_recovers_ground_truth;
    Alcotest.test_case "year partition" `Slow test_year_partition;
    Alcotest.test_case "emulation error rate" `Slow test_emulation_error_rate;
    Alcotest.test_case "accuracy corpus" `Slow test_accuracy_corpus;
  ]
