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

let version_of json = Result.to_option (Json.int version_key json)
let kind_of json = Result.to_option (Json.string kind_key json)

let check ?kind ?landscape json =
  let ( let* ) = Result.bind in
  let* () =
    match version_of json with
    | None ->
        Error (Printf.sprintf "missing %s (expected %d)" version_key version)
    | Some v when v <> version ->
        Error
          (Printf.sprintf "unsupported %s %d (expected %d)" version_key v
             version)
    | Some _ -> Ok ()
  in
  let* () =
    match kind with
    | None -> Ok ()
    | Some want -> (
        match kind_of json with
        | Some got when got = want -> Ok ()
        | Some got ->
            Error (Printf.sprintf "wrong kind %S (expected %S)" got want)
        | None -> Error (Printf.sprintf "missing kind (expected %S)" want))
  in
  match (landscape, Result.to_option (Json.string landscape_key json)) with
  | None, _ -> Ok json
  | Some want, Some got when got = want -> Ok json
  | Some want, Some got ->
      Error
        (Printf.sprintf
           "landscape fingerprint mismatch: written for %s, this landscape \
            is %s (resume with the generation flags it was written with)"
           got want)
  | Some want, None ->
      Error (Printf.sprintf "missing landscape fingerprint (expected %s)" want)
