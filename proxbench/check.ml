(* The benchmark's correctness checks.  Each is a pure function of the
   program's outputs and of facts computed apart from the program: the
   generator's ground-truth labels, the bound Algorithm 1 must meet,
   and (for the daemon) an independent cold analysis of the same chain. *)

module G = Dataset.Generate
module A = Proxion.Analysis
module Address = Evm.Address
module Json = Report.Json

(* --- scan / emulate: ground-truth labels ----------------------------------- *)

(* Algorithm 1 reports each distinct stored value once (§4.3); a no-op
   upgrade that re-sets the logic it already holds appears twice in the
   labels.  Keep first occurrences, in order. *)
let distinct_addresses l =
  List.rev
    (List.fold_left
       (fun acc a -> if List.exists (Address.equal a) acc then acc else a :: acc)
       [] l)

let func_flag (r : A.contract_report) =
  List.exists (fun p -> p.A.p_func_collisions <> []) r.A.r_pairs

let storage_flag (r : A.contract_report) =
  List.exists (fun p -> p.A.p_storage_collisions <> []) r.A.r_pairs

let historical (r : A.contract_report) =
  match r.A.r_resolution with
  | Some res -> res.Proxion.Logic_resolve.historical
  | None -> []

(* [None] when the report agrees with the label, else the first field
   that disagrees.  Diamonds are the paper's documented miss: the
   evaluated system (no diamond extension) reports them as non-proxies. *)
let label_mismatch (l : G.label) (r : A.contract_report) =
  let is_proxy = A.is_proxy_report r in
  if l.G.l_kind = G.K_diamond_proxy then
    if is_proxy then Some "diamond reported as proxy (documented miss expected)"
    else None
  else if is_proxy <> l.G.l_is_proxy then Some "proxy verdict"
  else if not is_proxy then None
  else if r.A.r_standard <> l.G.l_standard then Some "standard"
  else if func_flag r <> l.G.l_func_collision then Some "function collision"
  else if storage_flag r <> l.G.l_storage_collision then
    Some "storage collision"
  else if
    not
      (List.equal Address.equal (historical r)
         (distinct_addresses l.G.l_logics))
  then Some "logic history"
  else None

let ceil_log2 n =
  let rec go k p = if p >= n then k else go (k + 1) (2 * p) in
  go 0 1

(* Algorithm 1 splits a height range only where its endpoint values
   differ, so a slot holding [d] distinct values over [height] blocks
   costs at most 2 (d + 1) ceil(log2 (height + 1)) archive reads. *)
let api_bound ~height ~distinct = 2 * (distinct + 1) * ceil_log2 (height + 1)

let is_slot_proxy (r : A.contract_report) =
  match r.A.r_detection.Proxion.Proxy_detect.verdict with
  | Proxion.Proxy_detect.Proxy { source = Proxion.Proxy_detect.Storage_slot _; _ }
    ->
      true
  | _ -> false

let api_violation ~height (r : A.contract_report) =
  match r.A.r_resolution with
  | Some res when is_slot_proxy r ->
      let bound =
        api_bound ~height ~distinct:(List.length res.Proxion.Logic_resolve.historical)
      in
      if res.Proxion.Logic_resolve.api_calls > bound then
        Some
          (Printf.sprintf "%d archive calls over bound %d"
             res.Proxion.Logic_resolve.api_calls bound)
      else None
  | _ -> None

(* Every contract of a pass that fails a check, with the reason. *)
let scan_failures ~labels ~height (report : A.report) =
  let by_addr = Hashtbl.create 4096 in
  List.iter
    (fun (l : G.label) -> Hashtbl.replace by_addr (Address.to_hex l.G.l_address) l)
    labels;
  List.filter_map
    (fun (r : A.contract_report) ->
      let subject = Address.to_hex r.A.r_address in
      let why =
        match api_violation ~height r with
        | Some _ as v -> v
        | None -> (
            match Hashtbl.find_opt by_addr subject with
            | Some l -> label_mismatch l r
            | None -> None)
      in
      Option.map (fun w -> (subject, w)) why)
    report.A.contracts

(* --- watch: the daemon against a cold re-run ----------------------------- *)

(* The three point reads, projected from a report exactly as doc/API.md
   specifies their results. *)
let read_projection meth (r : A.contract_report) =
  let address = ("address", Json.String (Address.to_hex r.A.r_address)) in
  match meth with
  | "is_proxy" ->
      Json.Obj
        [
          address;
          ( "is_proxy",
            Json.Bool (Proxion.Proxy_detect.is_proxy r.A.r_detection) );
          ("detection", Proxion.Serialize.detection_to_json r.A.r_detection);
          ( "standard",
            match r.A.r_standard with
            | Some s -> Json.String (Proxion.Standard_classify.to_string s)
            | None -> Json.Null );
          ("dedup_hit", Json.Bool r.A.r_dedup_hit);
        ]
  | "logic_history" ->
      Json.Obj
        [
          address;
          ( "resolution",
            match r.A.r_resolution with
            | Some res -> Proxion.Serialize.resolution_to_json res
            | None -> Json.Null );
        ]
  | "collisions" ->
      Json.Obj
        [
          address;
          ( "pairs",
            Json.List (List.map Proxion.Serialize.pair_report_to_json r.A.r_pairs)
          );
        ]
  | m -> invalid_arg ("read_projection: " ^ m)

let find_report (cold : A.report) addr =
  List.find_opt
    (fun (r : A.contract_report) -> Address.equal r.A.r_address addr)
    cold.A.contracts

(* A served read answered after the final advance agrees with the cold
   report's projection of the same contract. *)
let read_matches ~cold meth addr (served : Json.t) =
  match find_report cold addr with
  | None -> false
  | Some r -> Json.to_string served = Json.to_string (read_projection meth r)

let findings_total (cold : A.report) = List.length (Proxion.Findings.of_report cold)

(* The recovered store's serialized report against the cold report,
   byte for byte; on a difference, the first differing contract. *)
let store_vs_cold ~(store : A.report) ~(cold : A.report) =
  let doc r = Json.to_string (Proxion.Serialize.report_to_json r) in
  if doc store = doc cold then None
  else
    let rec first = function
      | a :: ra, b :: rb ->
          let ja = Json.to_string (Proxion.Serialize.contract_report_to_json a)
          and jb =
            Json.to_string (Proxion.Serialize.contract_report_to_json b)
          in
          if ja <> jb then Some ("entry " ^ Address.to_hex a.A.r_address)
          else first (ra, rb)
      | [], [] -> Some "stats"
      | _ -> Some "contract count"
    in
    first (store.A.contracts, cold.A.contracts)
