module Generate = Dataset.Generate
module Analysis = Proxion.Analysis
module Address = Evm.Address

type sanctuary = {
  sa_contracts : int;
  sa_uschunt_failures : int;
  sa_uschunt_proxies : int;
  sa_proxion_proxies : int;
  sa_proxion_errors : int;
  sa_collisions_proxion_only : int;
}

type crush_cmp = {
  cr_contracts : int;
  cr_crush_proxies : int;
  cr_crush_library_fps : int;
  cr_proxion_proxies : int;
  cr_proxion_only : int;
  cr_crush_storage_pairs : int;
  cr_proxion_storage_pairs : int;
}

let run_sanctuary ?(config = Generate.quick_config) () =
  let land_ = Generate.generate config in
  let chain = land_.Generate.chain in
  let source = land_.Generate.source_of in
  (* The Sanctuary analogue: contracts with published source. *)
  let verified =
    List.filter (fun l -> l.Generate.l_has_source) land_.Generate.labels
  in
  let uschunt_failures = ref 0 in
  let uschunt_proxies = ref 0 in
  List.iter
    (fun l ->
      match source l.Generate.l_address with
      | None -> ()
      | Some ast -> (
          match
            Baselines.Uschunt_like.analyze ~address:l.Generate.l_address ast
          with
          | Baselines.Uschunt_like.Compile_error -> incr uschunt_failures
          | Baselines.Uschunt_like.Analyzed { is_proxy } ->
              if is_proxy then incr uschunt_proxies))
    verified;
  let addresses = List.map (fun l -> l.Generate.l_address) verified in
  let report = Proxion.Analyzer.analyze ~addresses ~chain ~source () in
  (* Function collisions USCHunt misses: pairs whose proxy failed to
     compile or was not detected. *)
  let uschunt_sees addr =
    match source addr with
    | None -> false
    | Some ast -> (
        match Baselines.Uschunt_like.analyze ~address:addr ast with
        | Baselines.Uschunt_like.Analyzed { is_proxy } -> is_proxy
        | Baselines.Uschunt_like.Compile_error -> false)
  in
  let proxion_only =
    List.fold_left
      (fun acc r ->
        acc
        + List.length
            (List.filter
               (fun p ->
                 p.Analysis.p_func_collisions <> []
                 && not (uschunt_sees p.Analysis.p_proxy))
               r.Analysis.r_pairs))
      0 report.Analysis.contracts
  in
  {
    sa_contracts = List.length verified;
    sa_uschunt_failures = !uschunt_failures;
    sa_uschunt_proxies = !uschunt_proxies;
    sa_proxion_proxies = report.Analysis.stats.Analysis.s_proxies;
    sa_proxion_errors = report.Analysis.stats.Analysis.s_emulation_errors;
    sa_collisions_proxion_only = proxion_only;
  }

let run_crush ?(config = Generate.quick_config) () =
  let land_ = Generate.generate config in
  let chain = land_.Generate.chain in
  let report = Proxion.Analyzer.analyze ~chain ~source:land_.Generate.source_of () in
  let crush_proxies = Baselines.Crush_like.detected_proxies chain in
  let label_of =
    let table = Hashtbl.create 1024 in
    List.iter (fun l -> Hashtbl.replace table l.Generate.l_address l) land_.Generate.labels;
    Hashtbl.find_opt table
  in
  let library_fps =
    List.length
      (List.filter
         (fun a ->
           match label_of a with
           | Some l -> not l.Generate.l_is_proxy
           | None -> false)
         crush_proxies)
  in
  let crush_set = Hashtbl.create 1024 in
  List.iter (fun a -> Hashtbl.replace crush_set a ()) crush_proxies;
  let proxion_only =
    List.length
      (List.filter
         (fun r ->
           Analysis.is_proxy_report r
           && not (Hashtbl.mem crush_set r.Analysis.r_address))
         report.Analysis.contracts)
  in
  (* Storage collisions each tool reports on its own pair set. *)
  let crush_storage =
    List.length
      (List.filter
         (fun (proxy, logic) ->
           Chain.code_at chain logic <> ""
           && Baselines.Crush_like.storage_collisions ~chain ~proxy ~logic <> [])
         (Baselines.Crush_like.proxy_pairs chain))
  in
  {
    cr_contracts = List.length land_.Generate.labels;
    cr_crush_proxies = List.length crush_proxies;
    cr_crush_library_fps = library_fps;
    cr_proxion_proxies = report.Analysis.stats.Analysis.s_proxies;
    cr_proxion_only = proxion_only;
    cr_crush_storage_pairs = crush_storage;
    cr_proxion_storage_pairs =
      report.Analysis.stats.Analysis.s_storage_colliding_pairs;
  }

let render_sanctuary s =
  Report.table ~title:"Section 6.2a: Sanctuary-style comparison (source-available)"
    ~header:[ "Metric"; "Value" ]
    [
      [ "verified contracts"; string_of_int s.sa_contracts ];
      [ "USCHunt compile failures"; string_of_int s.sa_uschunt_failures ];
      [ "USCHunt proxies"; string_of_int s.sa_uschunt_proxies ];
      [ "ProxioN proxies"; string_of_int s.sa_proxion_proxies ];
      [ "ProxioN emulation errors"; string_of_int s.sa_proxion_errors ];
      [
        "function collisions USCHunt misses";
        string_of_int s.sa_collisions_proxion_only;
      ];
    ]

let render_crush c =
  Report.table ~title:"Section 6.2b: CRUSH-style comparison (full population)"
    ~header:[ "Metric"; "Value" ]
    [
      [ "contracts"; string_of_int c.cr_contracts ];
      [ "CRUSH proxies (tx-history)"; string_of_int c.cr_crush_proxies ];
      [
        "  of which library-call false positives";
        string_of_int c.cr_crush_library_fps;
      ];
      [ "ProxioN proxies (emulation)"; string_of_int c.cr_proxion_proxies ];
      [
        "  hidden proxies only ProxioN finds";
        string_of_int c.cr_proxion_only;
      ];
      [ "CRUSH storage-colliding pairs"; string_of_int c.cr_crush_storage_pairs ];
      [
        "ProxioN storage-colliding pairs";
        string_of_int c.cr_proxion_storage_pairs;
      ];
    ]
