module Address = Evm.Address

type resolution = {
  current : Address.t option;
  historical : Address.t list;
  api_calls : int;
  upgrade_count : int;
}

(* Algorithm 1 (PartitionBlocks), phrased as a level-synchronous breadth
   first search so every level of the divide-and-conquer tree issues its
   storage probes in one batched round-trip — the shape a real archive
   node is queried in.  The probes are typed [eth_getStorageAt] requests
   answering words, sent through the resilient transport
   ([Transport.direct] when the caller passes none), which retries
   transient faults per batch entry; an entry exhausted or permanently
   rejected raises [Transport.Rpc_error].  The memo table of words avoids
   re-querying a height that serves as both an upper and a lower endpoint
   of adjacent ranges, so the set of heights fetched (and hence the
   API-call count the paper reports in §6.1) is identical to the
   sequential recursion: every endpoint of every range in the recursion
   tree, each exactly once.

   Each found value maps to the lowest endpoint of the ranges found to
   hold it.  Those ranges tile [lower, upper], so that endpoint is the
   first height in [lower, upper] at which the slot held the value. *)
let partition ?transport chain address ~slot ~lower ~upper =
  if lower > upper then U256.Map.empty
  else begin
    let transport =
      match transport with
      | Some tr -> tr
      | None -> Resilience.Transport.direct chain
    in
    let memo = Hashtbl.create 64 in
    let fetch_missing heights =
      let missing =
        List.sort_uniq Int.compare heights
        |> List.filter (fun h -> not (Hashtbl.mem memo h))
      in
      if missing <> [] then
        List.iter2
          (fun h -> function
            | Ok word -> Hashtbl.replace memo h word
            | Error e -> raise (Resilience.Transport.Rpc_error e))
          missing
          (Resilience.Transport.call_batch transport
             (List.map
                (fun height -> Chain_rpc.storage_at address slot ~height)
                missing))
    in
    let rec loop ranges acc =
      match ranges with
      | [] -> acc
      | _ ->
          fetch_missing (List.concat_map (fun (l, u) -> [ l; u ]) ranges);
          let next, acc =
            List.fold_left
              (fun (next, acc) (l, u) ->
                let v_l = Hashtbl.find memo l in
                let v_u = Hashtbl.find memo u in
                if U256.equal v_l v_u then
                  match U256.Map.find_opt v_l acc with
                  | Some h when h <= l -> (next, acc)
                  | _ -> (next, U256.Map.add v_l l acc)
                else
                  let mid = (l + u) / 2 in
                  ((mid + 1, u) :: (l, mid) :: next, acc))
              ([], acc) ranges
          in
          loop (List.rev next) acc
    in
    loop [ (lower, upper) ] U256.Map.empty
  end

let algorithm1 ?transport chain address ~slot ~lower ~upper =
  U256.Map.fold
    (fun v _ acc -> U256.Set.add v acc)
    (partition ?transport chain address ~slot ~lower ~upper)
    U256.Set.empty

let resolve_slot ?transport chain address ~slot =
  let before = Chain.api_call_count chain in
  let upper = Chain.height chain in
  let first = partition ?transport chain address ~slot ~lower:0 ~upper in
  let api_calls = Chain.api_call_count chain - before in
  let address_of v =
    let a = Address.of_u256 v in
    if Address.equal a Address.zero then None else Some a
  in
  (* Oldest first, by the height at which Algorithm 1 first saw each
     value. *)
  let historical =
    U256.Map.bindings first
    |> List.filter_map (fun (v, h) ->
           Option.map (fun a -> (h, a)) (address_of v))
    |> List.sort (fun (h1, _) (h2, _) -> Int.compare h1 h2)
    |> List.map snd
  in
  let current_value = Chain.get_storage_at chain address slot ~height:upper in
  let current = address_of current_value in
  let upgrade_count = max 0 (List.length historical - 1) in
  { current; historical; api_calls = api_calls + 1; upgrade_count }

let resolve ?transport ?probed chain address
    (source : Proxy_detect.target_source) =
  match source with
  | Proxy_detect.Hardcoded -> (
      (* The probe already produced the target; minimal proxies keep one
         logic contract forever. *)
      match Minisol.Patterns.eip1167_logic_address (Chain.code_at chain address) with
      | Some target ->
          { current = Some target; historical = [ target ]; api_calls = 0; upgrade_count = 0 }
      | None ->
          (* Hard-coded but not canonical minimal bytes: still a single
             fixed target; extract it by re-probing. *)
          let host = Chain.host_at_head chain in
          let d = Proxy_detect.detect ~host address in
          (match d.Proxy_detect.verdict with
          | Proxy_detect.Proxy { target; _ } ->
              { current = Some target; historical = [ target ]; api_calls = 0; upgrade_count = 0 }
          | _ -> { current = None; historical = []; api_calls = 0; upgrade_count = 0 }))
  | Proxy_detect.Storage_slot slot -> resolve_slot ?transport chain address ~slot
  | Proxy_detect.Computed -> (
      match probed with
      | Some target when not (Address.equal target Address.zero) ->
          {
            current = Some target;
            historical = [ target ];
            api_calls = 0;
            upgrade_count = 0;
          }
      | _ -> { current = None; historical = []; api_calls = 0; upgrade_count = 0 })
