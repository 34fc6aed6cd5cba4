let group_by_code_hash ~hash_of addresses =
  let table = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun addr ->
      let hash = hash_of addr in
      match Hashtbl.find_opt table hash with
      | Some bucket -> bucket := addr :: !bucket
      | None ->
          Hashtbl.replace table hash (ref [ addr ]);
          order := hash :: !order)
    addresses;
  List.rev_map
    (fun hash -> (hash, List.rev !(Hashtbl.find table hash)))
    !order

let duplicate_distribution ~hash_of addresses =
  group_by_code_hash ~hash_of addresses
  |> List.map (fun (_, group) -> List.length group)
  |> List.sort (fun a b -> compare b a)
