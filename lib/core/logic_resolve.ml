module Address = Evm.Address

type resolution = {
  current : Address.t option;
  historical : Address.t list;
  api_calls : int;
  upgrade_count : int;
}

type record = { slot : U256.t; changes : (int * U256.t) list }

(* Heights to the words read at them.  A height is its own hash, so a
   lookup makes no call into the polymorphic hash. *)
module Heights = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash h = h land max_int
end)

(* Algorithm 1 (PartitionBlocks), phrased as a level-synchronous breadth
   first search so every level of the divide-and-conquer tree asks for
   its storage values in one call of [read] — one batched round-trip, the
   shape a real archive node is queried in.  [read heights memo] adds the
   slot's value at each of [heights] (ascending, none asked before) to
   the memo table of words.  The memo avoids re-asking a height that
   serves as both an upper and a lower endpoint of adjacent ranges, so
   the set of heights read (and hence the API-call count the paper
   reports in §6.1) is identical to the sequential recursion: every
   endpoint of every range in the recursion tree, each exactly once.  The
   memo is returned with the result; its size is that count.

   A range whose endpoints agree is not split.  Those ranges tile
   [lower, upper], and every read is an endpoint of one of them.  In
   height order, the first range of each run holding one value starts
   one block after the last read of the run before it, so its lower end
   is a change point.  The change points, ascending, are the result. *)
let partition ~read ~lower ~upper =
  let memo = Heights.create 64 in
  let fetch_missing heights =
    let missing =
      List.sort_uniq Int.compare heights
      |> List.filter (fun h -> not (Heights.mem memo h))
    in
    if missing <> [] then read missing memo
  in
  let rec loop ranges held =
    match ranges with
    | [] -> held
    | _ ->
        fetch_missing (List.concat_map (fun (l, u) -> [ l; u ]) ranges);
        let next, held =
          List.fold_left
            (fun (next, held) (l, u) ->
              let v_l = Heights.find memo l in
              if U256.equal v_l (Heights.find memo u) then
                (next, (l, v_l) :: held)
              else
                let mid = (l + u) / 2 in
                ((mid + 1, u) :: (l, mid) :: next, held))
            ([], held) ranges
        in
        loop (List.rev next) held
  in
  let held = if lower > upper then [] else loop [ (lower, upper) ] [] in
  let changes =
    List.fold_left
      (fun changes (l, v) ->
        match changes with
        | (_, run) :: _ when U256.equal v run -> changes
        | _ -> (l, v) :: changes)
      []
      (List.sort (fun (l1, _) (l2, _) -> Int.compare l1 l2) held)
  in
  (List.rev changes, memo)

(* Archive reads: typed [eth_getStorageAt] requests answering words,
   sent through the resilient transport ([Transport.direct] when the
   caller passes none), which retries transient faults per batch entry;
   an entry exhausted or permanently rejected raises
   [Transport.Rpc_error]. *)
let archive_reads ?transport chain address ~slot =
  let transport =
    match transport with
    | Some tr -> tr
    | None -> Resilience.Transport.direct chain
  in
  fun heights memo ->
    List.iter2
      (fun h -> function
        | Ok word -> Heights.replace memo h word
        | Error e -> raise (Resilience.Transport.Rpc_error e))
      heights
      (Resilience.Transport.call_batch transport
         (List.map (fun height -> Chain_rpc.storage_at address slot ~height) heights))

let algorithm1 ?transport chain address ~slot ~lower ~upper =
  let changes, _ =
    partition ~read:(archive_reads ?transport chain address ~slot) ~lower ~upper
  in
  List.fold_left (fun acc (_, v) -> U256.Set.add v acc) U256.Set.empty changes

let address_of v =
  let a = Address.of_u256 v in
  if Address.equal a Address.zero then None else Some a

(* A resolution over [0, head] from the change points and the reads that
   found them, plus the head read that gives [current].  The history is
   each non-zero value at its first change point, oldest first. *)
let resolution_of (changes, reads) ~head_value =
  let historical =
    List.fold_left
      (fun seen (_, v) ->
        if List.exists (U256.equal v) seen then seen else v :: seen)
      [] changes
    |> List.rev |> List.filter_map address_of
  in
  {
    current = address_of head_value;
    historical;
    api_calls = Heights.length reads + 1;
    upgrade_count = max 0 (List.length historical - 1);
  }

let resolve_slot ?transport chain address ~slot =
  let upper = Chain.height chain in
  let ((changes, _) as found) =
    partition ~read:(archive_reads ?transport chain address ~slot) ~lower:0 ~upper
  in
  let head_value = Chain.get_storage_at chain address slot ~height:upper in
  (resolution_of found ~head_value, { slot; changes })

(* The recorded value at [height]: that of the last change at or below
   it. *)
let value_at changes height =
  let rec go v = function
    | (h, v') :: rest when h <= height -> go v' rest
    | _ -> v
  in
  go U256.zero changes

let replay record ~head =
  let value = value_at record.changes in
  let read heights memo =
    List.iter (fun h -> Heights.replace memo h (value h)) heights
  in
  resolution_of (partition ~read ~lower:0 ~upper:head) ~head_value:(value head)

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
  | Proxy_detect.Storage_slot slot ->
      fst (resolve_slot ?transport chain address ~slot)
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
