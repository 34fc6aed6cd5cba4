module Generate = Dataset.Generate
module Pipeline = Proxion.Pipeline

type numbers = {
  contracts_checked : int;
  probe_ms_per_contract : float;
  probe_contracts_per_sec : float;
  algo1_proxies : int;
  algo1_avg_api_calls : float;
  naive_api_calls : int;
  func_check_ms : float;
  storage_check_ms : float;
  pipeline_s_with_dedup : float;
  pipeline_s_without_dedup : float;
}

let time clk f =
  let t0 = Obs.Clock.now clk in
  let result = f () in
  (result, Obs.Clock.now clk -. t0)

let run ?(config = Generate.quick_config) ?(clock = Obs.Clock.real) () =
  let time f = time clock f in
  let land_ = Generate.generate config in
  let chain = land_.Generate.chain in
  let host = Chain.host_at_head chain in
  let addresses =
    List.map (fun l -> l.Generate.l_address) land_.Generate.labels
  in
  (* Probe throughput, no dedup: every contract emulated individually. *)
  let detections, probe_elapsed =
    time (fun () ->
        List.map (fun a -> Proxion.Proxy_detect.detect ~host a) addresses)
  in
  let n = List.length addresses in
  (* Algorithm 1 cost per slot-based proxy. *)
  let slot_proxies =
    List.filter_map
      (fun (d : Proxion.Proxy_detect.t) ->
        match d.Proxion.Proxy_detect.verdict with
        | Proxion.Proxy_detect.Proxy
            { source = Proxion.Proxy_detect.Storage_slot slot; _ } ->
            Some (d.Proxion.Proxy_detect.address, slot)
        | _ -> None)
      detections
  in
  let api_calls =
    List.map
      (fun (addr, slot) ->
        let r = Proxion.Logic_resolve.resolve_slot chain addr ~slot in
        r.Proxion.Logic_resolve.api_calls)
      slot_proxies
  in
  let algo1_avg =
    if api_calls = [] then 0.0
    else
      float_of_int (List.fold_left ( + ) 0 api_calls)
      /. float_of_int (List.length api_calls)
  in
  (* Collision-check latency on a representative pair set. *)
  let patterns_pairs =
    let p = Minisol.Codegen.runtime (Minisol.Patterns.honeypot_proxy ()) in
    let l = Minisol.Codegen.runtime (Minisol.Patterns.honeypot_logic ()) in
    let ap = Minisol.Codegen.runtime (Minisol.Patterns.audius_proxy ()) in
    let al = Minisol.Codegen.runtime (Minisol.Patterns.audius_logic ()) in
    [ (p, l); (ap, al) ]
  in
  let reps = 50 in
  let _, func_elapsed =
    time (fun () ->
        for _ = 1 to reps do
          List.iter
            (fun (p, l) ->
              ignore
                (Proxion.Func_collision.detect
                   ~proxy:(Proxion.Func_collision.Bytecode p)
                   ~logic:(Proxion.Func_collision.Bytecode l)))
            patterns_pairs
        done)
  in
  let _, storage_elapsed =
    time (fun () ->
        for _ = 1 to reps do
          List.iter
            (fun (p, l) ->
              ignore
                (Proxion.Storage_collision.detect
                   ~proxy:(Proxion.Storage_collision.Bytecode p)
                   ~logic:(Proxion.Storage_collision.Bytecode l)))
            patterns_pairs
        done)
  in
  (* Full pipeline, with and without dedup (the §6.1 bottleneck fix). *)
  let _, with_dedup =
    time (fun () ->
        ignore (Pipeline.analyze ~chain ~source:land_.Generate.source_of ()))
  in
  let no_dedup = Pipeline.Config.(default |> with_dedup false) in
  let _, without_dedup =
    time (fun () ->
        ignore
          (Pipeline.analyze ~config:no_dedup ~chain
             ~source:land_.Generate.source_of ()))
  in
  {
    contracts_checked = n;
    probe_ms_per_contract = probe_elapsed /. float_of_int n *. 1000.0;
    probe_contracts_per_sec = float_of_int n /. probe_elapsed;
    algo1_proxies = List.length slot_proxies;
    algo1_avg_api_calls = algo1_avg;
    naive_api_calls = Chain.height chain;
    func_check_ms = func_elapsed /. float_of_int (reps * 2) *. 1000.0;
    storage_check_ms = storage_elapsed /. float_of_int (reps * 2) *. 1000.0;
    pipeline_s_with_dedup = with_dedup;
    pipeline_s_without_dedup = without_dedup;
  }

let render p =
  Report.table ~title:"Section 6.1: performance"
    ~header:[ "Metric"; "Measured"; "Paper" ]
    [
      [
        "proxy check latency";
        Printf.sprintf "%.3f ms/contract" p.probe_ms_per_contract;
        "6.4 ms";
      ];
      [
        "proxy check throughput";
        Printf.sprintf "%.0f contracts/s" p.probe_contracts_per_sec;
        "156.3 contracts/s";
      ];
      [
        "getStorageAt per slot proxy (Algorithm 1)";
        Printf.sprintf "%.1f calls (over %d proxies)" p.algo1_avg_api_calls
          p.algo1_proxies;
        "26 calls";
      ];
      [
        "naive per-block scan would need";
        Printf.sprintf "%d calls" p.naive_api_calls;
        "15M blocks";
      ];
      [
        "function collision check";
        Printf.sprintf "%.3f ms/pair" p.func_check_ms;
        "6.7 ms";
      ];
      [
        "storage collision check";
        Printf.sprintf "%.3f ms/pair" p.storage_check_ms;
        "1.3 min (incl. symbolic exec + verify)";
      ];
      [
        "pipeline with bytecode dedup";
        Printf.sprintf "%.2f s" p.pipeline_s_with_dedup;
        "65 h for 36M contracts";
      ];
      [
        "pipeline without dedup";
        Printf.sprintf "%.2f s" p.pipeline_s_without_dedup;
        "(48 days for storage checks)";
      ];
    ]
