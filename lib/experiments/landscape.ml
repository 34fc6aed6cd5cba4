module Generate = Dataset.Generate
module Spec = Dataset.Spec
module Analysis = Proxion.Analysis
module Address = Evm.Address

type t = {
  land_ : Generate.t;
  report : Analysis.report;
}

let of_parts land_ report = { land_; report }

let prepare ?(config = Generate.default_config) () =
  let land_ = Generate.generate config in
  let report =
    Proxion.Analyzer.analyze ~chain:land_.Generate.chain
      ~source:land_.Generate.source_of ()
  in
  of_parts land_ report

let label_index t =
  let table = Hashtbl.create 1024 in
  List.iter
    (fun l -> Hashtbl.replace table l.Generate.l_address l)
    t.land_.Generate.labels;
  table

let cumulative rows =
  (* rows: (year, a, b, c, d) -> running sums. *)
  let acc = Array.make 4 0 in
  List.map
    (fun (year, values) ->
      Array.iteri (fun i v -> acc.(i) <- acc.(i) + v) values;
      (year, Array.copy acc))
    rows

let fig2 t =
  let per_year =
    List.map
      (fun (year, labels) ->
        let count f = List.length (List.filter f labels) in
        ( year,
          [|
            count (fun l -> l.Generate.l_has_source && not l.Generate.l_has_tx);
            count (fun l -> l.Generate.l_has_source && l.Generate.l_has_tx);
            count (fun l -> (not l.Generate.l_has_source) && l.Generate.l_has_tx);
            count (fun l ->
                (not l.Generate.l_has_source) && not l.Generate.l_has_tx);
          |] ))
      (Generate.by_year t.land_)
  in
  let rows =
    List.map
      (fun (year, acc) ->
        [
          string_of_int year;
          string_of_int acc.(0);
          string_of_int acc.(1);
          string_of_int acc.(2);
          string_of_int acc.(3);
          string_of_int (Array.fold_left ( + ) 0 acc);
        ])
      (cumulative per_year)
  in
  Report.table
    ~title:"Figure 2: cumulative alive contracts by source/tx availability"
    ~header:[ "Year"; "only-source"; "source+tx"; "only-tx"; "hidden"; "total" ]
    rows

let fig4 t =
  let labels = label_index t in
  let source = t.land_.Generate.source_of in
  let year_of addr =
    match Hashtbl.find_opt labels addr with
    | Some l -> Some l.Generate.l_year
    | None -> None
  in
  let pair_class p =
    let proxy_src = source p.Analysis.p_proxy <> None in
    let logic_src = source p.Analysis.p_logic <> None in
    match (proxy_src, logic_src) with
    | true, true -> 0
    | false, true -> 1
    | true, false -> 2
    | false, false -> 3
  in
  let per_year =
    List.map
      (fun (year, _) ->
        let counts = Array.make 4 0 in
        List.iter
          (fun r ->
            List.iter
              (fun p ->
                if year_of p.Analysis.p_proxy = Some year then
                  counts.(pair_class p) <- counts.(pair_class p) + 1)
              r.Analysis.r_pairs)
          t.report.Analysis.contracts;
        (year, counts))
      (Generate.by_year t.land_)
  in
  let rows =
    List.map
      (fun (year, acc) ->
        [
          string_of_int year;
          string_of_int acc.(0);
          string_of_int acc.(1);
          string_of_int acc.(2);
          string_of_int acc.(3);
        ])
      (cumulative per_year)
  in
  Report.table
    ~title:"Figure 4: cumulative proxy/logic pairs by source availability"
    ~header:[ "Year"; "both-src"; "logic-src"; "proxy-src"; "no-src" ] rows

let table3 t =
  let labels = label_index t in
  let boost = t.land_.Generate.config.Generate.storage_boost in
  let total = t.land_.Generate.config.Generate.total in
  let upscale = float_of_int Spec.mainnet_total_alive /. float_of_int total in
  let per_year year =
    let func = ref 0 and storage = ref 0 in
    List.iter
      (fun r ->
        match Hashtbl.find_opt labels r.Analysis.r_address with
        | Some l when l.Generate.l_year = year ->
            if List.exists (fun p -> p.Analysis.p_func_collisions <> []) r.Analysis.r_pairs
            then incr func;
            if
              List.exists
                (fun p -> p.Analysis.p_storage_collisions <> [])
                r.Analysis.r_pairs
            then incr storage
        | _ -> ())
      t.report.Analysis.contracts;
    (!func, !storage)
  in
  let rows =
    Array.to_list Spec.years
    |> List.map (fun year ->
           let func, storage = per_year year in
           let est_storage =
             float_of_int storage /. boost *. upscale
           in
           [
             string_of_int year;
             string_of_int func;
             string_of_int storage;
             Printf.sprintf "%.0f" (float_of_int func *. upscale);
             Printf.sprintf "%.0f" est_storage;
           ])
  in
  Report.table
    ~title:
      "Table 3: collisions per deployment year (detected; mainnet-scale estimates)"
    ~header:[ "Year"; "func"; "storage"; "est-func@36M"; "est-storage@36M" ]
    rows

let fig5 t =
  let chain = t.land_.Generate.chain in
  let proxies =
    List.filter_map
      (fun r ->
        if Analysis.is_proxy_report r then Some r.Analysis.r_address else None)
      t.report.Analysis.contracts
  in
  let logics =
    List.concat_map
      (fun r -> List.map (fun p -> p.Analysis.p_logic) r.Analysis.r_pairs)
      t.report.Analysis.contracts
    |> List.sort_uniq Address.compare
  in
  let dist addrs =
    Proxion.Dedup.duplicate_distribution ~hash_of:(Chain.code_hash chain) addrs
  in
  let proxy_dist = dist proxies in
  let logic_dist = dist logics in
  let top n l = List.filteri (fun i _ -> i < n) l in
  Report.histogram ~title:"Figure 5a: proxy clone counts (top 12 unique bytecodes)"
    (List.mapi (fun i c -> (Printf.sprintf "#%d" (i + 1), c)) (top 12 proxy_dist))
  ^ Printf.sprintf "unique proxy bytecodes: %d of %d proxies\n\n"
      (List.length proxy_dist) (List.length proxies)
  ^ Report.histogram ~title:"Figure 5b: logic clone counts (top 12 unique bytecodes)"
      (List.mapi (fun i c -> (Printf.sprintf "#%d" (i + 1), c)) (top 12 logic_dist))
  ^ Printf.sprintf "unique logic bytecodes: %d of %d logic contracts\n"
      (List.length logic_dist) (List.length logics)

let table4 t =
  let counts = Hashtbl.create 4 in
  let bump std =
    Hashtbl.replace counts std (1 + Option.value ~default:0 (Hashtbl.find_opt counts std))
  in
  List.iter
    (fun r ->
      match r.Analysis.r_standard with Some std -> bump std | None -> ())
    t.report.Analysis.contracts;
  let total =
    Hashtbl.fold (fun _ c acc -> c + acc) counts 0
  in
  let row std =
    let c = Option.value ~default:0 (Hashtbl.find_opt counts std) in
    [
      Proxion.Standard_classify.to_string std;
      string_of_int c;
      Report.pct (if total = 0 then 0.0 else float_of_int c /. float_of_int total);
    ]
  in
  Report.table ~title:"Table 4: proxy design standards"
    ~header:[ "Standard"; "# proxies"; "ratio" ]
    [
      row Proxion.Standard_classify.Eip1167;
      row Proxion.Standard_classify.Eip1822;
      row Proxion.Standard_classify.Eip1967;
      row Proxion.Standard_classify.Other;
    ]

let fig6 t =
  let buckets = Hashtbl.create 8 in
  List.iter
    (fun r ->
      match r.Analysis.r_resolution with
      | Some res ->
          let u = res.Proxion.Logic_resolve.upgrade_count in
          Hashtbl.replace buckets u
            (1 + Option.value ~default:0 (Hashtbl.find_opt buckets u))
      | None -> ())
    t.report.Analysis.contracts;
  let bins =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) buckets []
    |> List.sort compare
    |> List.map (fun (k, v) -> (string_of_int k, v))
  in
  let upgraded =
    Hashtbl.fold (fun k v acc -> if k > 0 then acc + v else acc) buckets 0
  in
  let events =
    Hashtbl.fold (fun k v acc -> acc + (k * v)) buckets 0
  in
  Report.histogram ~title:"Figure 6: upgrades per proxy (log-scale in paper)" bins
  ^ Printf.sprintf
      "upgraded proxies: %d; upgrade events: %d; mean events per upgraded: %.2f\n"
      upgraded events
      (if upgraded = 0 then 0.0 else float_of_int events /. float_of_int upgraded)

let summary t =
  let stats = t.report.Analysis.stats in
  let labels = t.land_.Generate.labels in
  let total = List.length labels in
  let gt_proxies = List.length (Generate.proxies t.land_) in
  let hidden_proxies =
    List.length
      (List.filter
         (fun l ->
           l.Generate.l_is_proxy && (not l.Generate.l_has_source)
           && not l.Generate.l_has_tx)
         labels)
  in
  let detected_hidden =
    let idx = label_index t in
    List.length
      (List.filter
         (fun r ->
           Analysis.is_proxy_report r
           &&
           match Hashtbl.find_opt idx r.Analysis.r_address with
           | Some l ->
               (not l.Generate.l_has_source) && not l.Generate.l_has_tx
           | None -> false)
         t.report.Analysis.contracts)
  in
  Report.table ~title:"Landscape summary (paper section 7.2)"
    ~header:[ "Metric"; "Value" ]
    [
      [ "contracts analyzed"; string_of_int stats.Analysis.s_analyzed ];
      [ "ground-truth proxies"; string_of_int gt_proxies ];
      [
        "detected proxies";
        Printf.sprintf "%d (%s of all)" stats.Analysis.s_proxies
          (Report.pct (float_of_int stats.Analysis.s_proxies /. float_of_int total));
      ];
      [
        "emulation errors";
        Printf.sprintf "%d (%s)" stats.Analysis.s_emulation_errors
          (Report.pct
             (float_of_int stats.Analysis.s_emulation_errors /. float_of_int total));
      ];
      [ "hidden proxies (no src, no tx)"; string_of_int hidden_proxies ];
      [ "hidden proxies detected"; string_of_int detected_hidden ];
      [ "proxy/logic pairs"; string_of_int stats.Analysis.s_pairs ];
      [ "pairs with function collisions"; string_of_int stats.Analysis.s_func_colliding_pairs ];
      [ "pairs with storage collisions"; string_of_int stats.Analysis.s_storage_colliding_pairs ];
      [ "verified storage exploits"; string_of_int stats.Analysis.s_verified_storage_pairs ];
      [ "honeypot-shaped pairs"; string_of_int stats.Analysis.s_honeypot_pairs ];
      [ "unique bytecodes"; string_of_int stats.Analysis.s_unique_codes ];
      [ "dedup cache hits"; string_of_int stats.Analysis.s_dedup_hits ];
      [ "getStorageAt calls"; string_of_int stats.Analysis.s_api_calls ];
    ]

let upgrade_authority t =
  let chain = t.land_.Generate.chain in
  let counts = Hashtbl.create 4 in
  let bump key =
    Hashtbl.replace counts key (1 + Option.value ~default:0 (Hashtbl.find_opt counts key))
  in
  List.iter
    (fun r ->
      match r.Analysis.r_detection.Proxion.Proxy_detect.verdict with
      | Proxion.Proxy_detect.Proxy { source; _ } -> (
          match Proxion.Upgrade_auth.analyze chain r.Analysis.r_address source with
          | Proxion.Upgrade_auth.Immutable -> bump "immutable"
          | Proxion.Upgrade_auth.Gated -> bump "gated"
          | Proxion.Upgrade_auth.Open_to_anyone _ -> bump "OPEN to anyone"
          | Proxion.Upgrade_auth.No_upgrade_path -> bump "no visible path")
      | _ -> ())
    t.report.Analysis.contracts;
  let row key =
    [ key; string_of_int (Option.value ~default:0 (Hashtbl.find_opt counts key)) ]
  in
  Report.table
    ~title:"Upgrade authority (Salehi-style ownership-of-upgradeability survey)"
    ~header:[ "Authority"; "# proxies" ]
    [ row "immutable"; row "gated"; row "OPEN to anyone"; row "no visible path" ]

let render ?(findings = 0) t =
  let sections =
    [
      summary t;
      fig2 t;
      fig4 t;
      table3 t;
      fig5 t;
      table4 t;
      fig6 t;
      upgrade_authority t;
    ]
    @
    if findings > 0 then
      [ Proxion.Findings.render ~limit:findings (Proxion.Findings.of_report t.report) ]
    else []
  in
  String.concat "\n" sections
