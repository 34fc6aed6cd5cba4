type source_lookup = Evm.Address.t -> Minisol.Ast.contract option

type analysis_method =
  | Source_source
  | Mixed
  | Bytecode_bytecode

type pair_report = {
  p_proxy : Evm.Address.t;
  p_logic : Evm.Address.t;
  p_method : analysis_method;
  p_func_collisions : Func_collision.collision list;
  p_storage_collisions : Storage_collision.collision list;
  p_honeypot : bool;
}

type contract_report = {
  r_address : Evm.Address.t;
  r_code_hash : string;
  r_detection : Proxy_detect.t;
  r_standard : Standard_classify.standard option;
  r_resolution : Logic_resolve.resolution option;
  r_pairs : pair_report list;
  r_dedup_hit : bool;
}

type stats = {
  s_analyzed : int;
  s_proxies : int;
  s_emulation_errors : int;
  s_pairs : int;
  s_func_colliding_pairs : int;
  s_storage_colliding_pairs : int;
  s_verified_storage_pairs : int;
  s_honeypot_pairs : int;
  s_dedup_hits : int;
  s_unique_codes : int;
  s_api_calls : int;
  s_emulation_steps : int;
}

type report = { contracts : contract_report list; stats : stats }

let is_proxy_report r = Proxy_detect.is_proxy r.r_detection

type entry = { e_report : contract_report; e_api_calls : int }

let report_of_entries ~unique_codes entries =
  let contracts = List.map (fun e -> e.e_report) entries in
  let all_pairs = List.concat_map (fun r -> r.r_pairs) contracts in
  let count f l = List.length (List.filter f l) in
  let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l in
  let stats =
    {
      s_analyzed = List.length contracts;
      s_proxies = count is_proxy_report contracts;
      s_emulation_errors =
        count
          (fun r ->
            match r.r_detection.Proxy_detect.verdict with
            | Proxy_detect.Emulation_error _ -> true
            | _ -> false)
          contracts;
      s_pairs = List.length all_pairs;
      s_func_colliding_pairs =
        count (fun p -> p.p_func_collisions <> []) all_pairs;
      s_storage_colliding_pairs =
        count (fun p -> p.p_storage_collisions <> []) all_pairs;
      s_verified_storage_pairs =
        count
          (fun p ->
            List.exists
              (fun (c : Storage_collision.collision) ->
                c.Storage_collision.verified)
              p.p_storage_collisions)
          all_pairs;
      s_honeypot_pairs = count (fun p -> p.p_honeypot) all_pairs;
      s_dedup_hits = count (fun r -> r.r_dedup_hit) contracts;
      s_unique_codes = unique_codes;
      s_api_calls = sum (fun e -> e.e_api_calls) entries;
      s_emulation_steps =
        sum (fun r -> r.r_detection.Proxy_detect.steps) contracts;
    }
  in
  { contracts; stats }

module Config = struct
  type t = {
    verify_storage : bool;
    dedup : bool;
    diamond_extension : bool;
    batch_size : int;
    domains : int;
  }

  let default =
    {
      verify_storage = true;
      dedup = true;
      diamond_extension = false;
      batch_size = 32;
      domains = 1;
    }

  let with_dedup dedup t = { t with dedup }
  let with_batch_size batch_size t = { t with batch_size }
  let with_domains domains t = { t with domains }

  let validate t =
    let module V = Report.Validate in
    match
      V.all
        [
          V.positive ~field:"batch_size" t.batch_size;
          V.positive ~field:"domains" t.domains;
        ]
    with
    | Ok () -> Ok t
    | Error e -> Error e
end
