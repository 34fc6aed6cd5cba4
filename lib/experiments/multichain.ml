module Generate = Dataset.Generate
module Analysis = Proxion.Analysis

type chain_row = {
  mc_name : string;
  mc_chain_id : int;
  mc_contracts : int;
  mc_proxies : int;
  mc_proxy_share : float;
  mc_func_collisions : int;
  mc_storage_collisions : int;
  mc_hidden_detected : int;
}

(* Relative scales are rough contract-population ratios; absolute sizes do
   not matter for the shares the survey compares. *)
let chains =
  [
    ("Ethereum", 1, 1.0);
    ("BSC", 56, 0.8);
    ("Polygon", 137, 0.7);
    ("Arbitrum", 42161, 0.35);
    ("Optimism", 10, 0.3);
    ("Avalanche", 43114, 0.25);
    ("Fantom", 250, 0.2);
    ("Celo", 42220, 0.1);
  ]

let run ?(base_total = 1_200) ?(seed = 42) () =
  List.map
    (fun (name, chain_id, scale) ->
      let config =
        {
          Generate.quick_config with
          Generate.total = max 200 (int_of_float (float_of_int base_total *. scale));
          seed = seed + chain_id;
          chain_id;
        }
      in
      let land_ = Generate.generate config in
      let report =
        Proxion.Analyzer.analyze ~chain:land_.Generate.chain
          ~source:land_.Generate.source_of ()
      in
      let stats = report.Analysis.stats in
      let hidden_detected =
        let idx = Hashtbl.create 256 in
        List.iter
          (fun l -> Hashtbl.replace idx l.Generate.l_address l)
          land_.Generate.labels;
        List.length
          (List.filter
             (fun r ->
               Analysis.is_proxy_report r
               &&
               match Hashtbl.find_opt idx r.Analysis.r_address with
               | Some l -> (not l.Generate.l_has_source) && not l.Generate.l_has_tx
               | None -> false)
             report.Analysis.contracts)
      in
      {
        mc_name = name;
        mc_chain_id = chain_id;
        mc_contracts = stats.Analysis.s_analyzed;
        mc_proxies = stats.Analysis.s_proxies;
        mc_proxy_share =
          float_of_int stats.Analysis.s_proxies /. float_of_int stats.Analysis.s_analyzed;
        mc_func_collisions = stats.Analysis.s_func_colliding_pairs;
        mc_storage_collisions = stats.Analysis.s_storage_colliding_pairs;
        mc_hidden_detected = hidden_detected;
      })
    chains

let render rows =
  Report.table ~title:"Section 8.2: multichain survey (one landscape per chain)"
    ~header:
      [ "Chain"; "id"; "contracts"; "proxies"; "share"; "func-coll"; "storage-coll"; "hidden" ]
    (List.map
       (fun r ->
         [
           r.mc_name;
           string_of_int r.mc_chain_id;
           string_of_int r.mc_contracts;
           string_of_int r.mc_proxies;
           Report.pct r.mc_proxy_share;
           string_of_int r.mc_func_collisions;
           string_of_int r.mc_storage_collisions;
           string_of_int r.mc_hidden_detected;
         ])
       rows)

let to_json rows =
  Report.Json.List
    (List.map
       (fun r ->
         Report.Json.Obj
           [
             ("chain", Report.Json.String r.mc_name);
             ("chain_id", Report.Json.Int r.mc_chain_id);
             ("contracts", Report.Json.Int r.mc_contracts);
             ("proxies", Report.Json.Int r.mc_proxies);
             ("proxy_share", Report.Json.Float r.mc_proxy_share);
             ("function_collisions", Report.Json.Int r.mc_func_collisions);
             ("storage_collisions", Report.Json.Int r.mc_storage_collisions);
             ("hidden_proxies_detected", Report.Json.Int r.mc_hidden_detected);
           ])
       rows)
