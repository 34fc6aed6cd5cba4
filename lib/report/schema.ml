let version = 1
let version_key = "schema_version"
let kind_key = "kind"
let landscape_key = "landscape"

let strip kvs =
  List.filter
    (fun (k, _) -> k <> version_key && k <> kind_key && k <> landscape_key)
    kvs

let stamp ?kind ?landscape json =
  let opt key = function None -> [] | Some v -> [ (key, Json.String v) ] in
  let tag =
    ((version_key, Json.Int version) :: opt kind_key kind)
    @ opt landscape_key landscape
  in
  match json with
  | Json.Obj kvs -> Json.Obj (tag @ strip kvs)
  | other -> Json.Obj (tag @ [ ("payload", other) ])

let version_of = function
  | Json.Obj kvs -> (
      match List.assoc_opt version_key kvs with
      | Some (Json.Int v) -> Some v
      | _ -> None)
  | _ -> None

let kind_of = function
  | Json.Obj kvs -> (
      match List.assoc_opt kind_key kvs with
      | Some (Json.String k) -> Some k
      | _ -> None)
  | _ -> None

let landscape_of = function
  | Json.Obj kvs -> (
      match List.assoc_opt landscape_key kvs with
      | Some (Json.String fp) -> Some fp
      | _ -> None)
  | _ -> None

let check_landscape want json =
  match landscape_of json with
  | Some got when got = want -> Ok json
  | Some got ->
      Error
        (Printf.sprintf
           "landscape fingerprint mismatch: written for %s, this landscape \
            is %s (resume with the generation flags it was written with)"
           got want)
  | None ->
      Error (Printf.sprintf "missing landscape fingerprint (expected %s)" want)

let check ?kind ?landscape json =
  match version_of json with
  | None -> Error (Printf.sprintf "missing %s (expected %d)" version_key version)
  | Some v when v <> version ->
      Error
        (Printf.sprintf "unsupported %s %d (expected %d)" version_key v version)
  | Some _ -> (
      let checked =
        match kind with
        | None -> Ok json
        | Some want -> (
            match kind_of json with
            | Some got when got = want -> Ok json
            | Some got ->
                Error (Printf.sprintf "wrong kind %S (expected %S)" got want)
            | None -> Error (Printf.sprintf "missing kind (expected %S)" want))
      in
      match (checked, landscape) with
      | Ok json, Some want -> check_landscape want json
      | checked, _ -> checked)
