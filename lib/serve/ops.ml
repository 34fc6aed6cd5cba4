module Json = Report.Json

(* ------------------------------------------------------------------ *)
(* Snapshot model                                                       *)
(* ------------------------------------------------------------------ *)

type histo = {
  h_labels : (string * string) list;
  h_buckets : (float * float) list;  (* upper bound (infinity = +Inf), cumulative count *)
  h_sum : float;
  h_count : float;
  h_exemplar : (string * float) option;
}

type view = {
  v_scalars : (string * ((string * string) list * float) list) list;
      (* family -> series, counters and gauges alike *)
  v_histos : (string * histo list) list;
  v_draining : bool;
  v_flight : (string * int) list;  (* flight event kind -> count in ring *)
  v_flight_tail : string list;  (* newest-last one-line renderings *)
}

let ( let* ) = Result.bind

(* A label set: an object of string values. *)
let labels_of_json = function
  | Json.Obj kvs as obj ->
      List.fold_right
        (fun (k, _) acc ->
          let* acc = acc in
          let* v = Json.string k obj in
          Ok ((k, v) :: acc))
        kvs (Ok [])
  | _ -> Error "labels: expected an object"

let bucket_of_json json =
  let* le =
    match Json.string "le" json with
    | Ok "+Inf" -> Ok infinity
    | _ -> Json.float "le" json
  in
  let* count = Json.float "count" json in
  Ok (le, count)

let exemplar_of_json json =
  let* id = Json.string "trace_id" json in
  let* v = Json.float "value" json in
  Ok (id, v)

let histo_of_json json =
  let* h_labels = Json.field "labels" labels_of_json json in
  let* h_buckets = Json.list "buckets" bucket_of_json json in
  let* h_sum = Json.float "sum" json in
  let* h_count = Json.float "count" json in
  let* h_exemplar = Json.opt "exemplar" exemplar_of_json json in
  Ok { h_labels; h_buckets; h_sum; h_count; h_exemplar }

let scalar_of_json json =
  let* labels = Json.field "labels" labels_of_json json in
  let* value = Json.float "value" json in
  Ok (labels, value)

(* A family's series land in exactly one of the two lists. *)
let family_of_json json =
  let* name = Json.string "name" json in
  let* kind = Json.string "kind" json in
  if kind = "histogram" then
    let* hs = Json.list "series" histo_of_json json in
    Ok ((name, []), (name, hs))
  else
    let* ss = Json.list "series" scalar_of_json json in
    Ok ((name, ss), (name, []))

let of_metrics_json json =
  let* fams =
    Result.map_error
      (( ^ ) "metrics snapshot: ")
      (Json.list "metrics" family_of_json json)
  in
  let nonempty l = List.filter (fun (_, series) -> series <> []) l in
  Ok
    {
      v_scalars = nonempty (List.map fst fams);
      v_histos = nonempty (List.map snd fams);
      v_draining = false;
      v_flight = [];
      v_flight_tail = [];
    }

let with_health view json =
  match Json.bool "draining" json with
  | Ok d -> { view with v_draining = d }
  | Error _ -> view

let flight_line ev =
  let* kind = Json.string "kind" ev in
  let* fields =
    Json.opt "fields"
      (function Json.Obj fs -> Ok fs | _ -> Error "fields: expected an object")
      ev
  in
  Ok
    ( kind,
      Printf.sprintf "%-18s %s" kind
        (String.concat " "
           (List.map
              (fun (k, v) -> k ^ "=" ^ Json.to_string ~pretty:false v)
              (Option.value ~default:[] fields))) )

let with_flight ?(tail = 8) view json =
  match Json.list "events" flight_line json with
  | Error _ -> view
  | Ok lines ->
      let counts = Hashtbl.create 16 in
      List.iter
        (fun (kind, _) ->
          Hashtbl.replace counts kind
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts kind)))
        lines;
      let n = List.length lines in
      {
        view with
        v_flight =
          List.sort compare
            (Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []);
        v_flight_tail =
          List.filteri (fun i _ -> i >= n - tail) (List.map snd lines);
      }

(* ------------------------------------------------------------------ *)
(* Derived quantities                                                   *)
(* ------------------------------------------------------------------ *)

let scalar_series view name =
  Option.value ~default:[] (List.assoc_opt name view.v_scalars)

let histo_series view name =
  Option.value ~default:[] (List.assoc_opt name view.v_histos)

let scalar_total view name =
  List.fold_left (fun acc (_, v) -> acc +. v) 0.0 (scalar_series view name)

let label_value labels key = List.assoc_opt key labels

(* ------------------------------------------------------------------ *)
(* Rendering                                                            *)
(* ------------------------------------------------------------------ *)

let fmt_rate = function
  | r when r >= 100.0 -> Printf.sprintf "%.0f" r
  | r when r >= 1.0 -> Printf.sprintf "%.1f" r
  | r -> Printf.sprintf "%.2f" r

(* Rate of a counter between two polls; zero without a previous poll. *)
let rate ~prev ~dt view name =
  match prev with
  | Some p when dt > 0.0 ->
      Float.max 0.0 ((scalar_total view name -. scalar_total p name) /. dt)
  | _ -> 0.0

let render ?prev ?(dt = 0.0) view =
  let buf = Buffer.create 2048 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let req_rate = rate ~prev ~dt view "proxion_serve_requests_total" in
  line "proxion top — daemon %s"
    (if view.v_draining then "DRAINING" else "serving");
  line "  requests  total %.0f  rate %s/s  inflight %.0f  open conns %.0f"
    (scalar_total view "proxion_serve_requests_total")
    (fmt_rate req_rate)
    (scalar_total view "proxion_serve_inflight_requests")
    (scalar_total view "proxion_serve_open_connections");
  line "  increments %.0f  dirty %.0f  reorgs %.0f  retracted %.0f"
    (scalar_total view "proxion_serve_increments_total")
    (scalar_total view "proxion_serve_dirty_subjects_total")
    (scalar_total view "proxion_serve_reorgs_total")
    (scalar_total view "proxion_serve_retracted_findings_total");
  let sheds = scalar_series view "proxion_serve_shed_connections_total" in
  if sheds <> [] then
    line "  sheds     %s"
      (String.concat "  "
         (List.map
            (fun (labels, v) ->
              Printf.sprintf "%s=%.0f"
                (Option.value ~default:"?" (label_value labels "reason"))
                v)
            sheds));
  (* Per-method table from the latency histogram. *)
  let latency = histo_series view "proxion_serve_request_seconds" in
  if latency <> [] then begin
    line "";
    line "  %-16s %10s %9s %9s %9s  %s" "method" "count" "p50 ms" "p99 ms"
      "err" "max-latency trace";
    let errors = scalar_series view "proxion_serve_errors_total" in
    List.iter
      (fun h ->
        let meth = Option.value ~default:"?" (label_value h.h_labels "method") in
        let errs =
          List.fold_left
            (fun acc (labels, v) ->
              if label_value labels "method" = Some meth then acc +. v else acc)
            0.0 errors
        in
        line "  %-16s %10.0f %9.2f %9.2f %9.0f  %s" meth h.h_count
          (1000.0 *. Obs.Metrics.quantile h.h_buckets 0.50)
          (1000.0 *. Obs.Metrics.quantile h.h_buckets 0.99)
          errs
          (match h.h_exemplar with
          | Some (id, v) -> Printf.sprintf "%s (%.1f ms)" id (1000.0 *. v)
          | None -> "-"))
      latency
  end;
  (* Endpoint health from the transport counters. *)
  let attempts = scalar_series view "proxion_chain_endpoint_attempts_total" in
  if attempts <> [] then begin
    line "";
    line "  endpoints:";
    let endpoints =
      List.sort_uniq compare
        (List.filter_map
           (fun (labels, _) -> label_value labels "endpoint")
           attempts)
    in
    let sum_for name ep =
      List.fold_left
        (fun acc (labels, v) ->
          if label_value labels "endpoint" = Some ep then acc +. v else acc)
        0.0
        (scalar_series view name)
    in
    List.iter
      (fun ep ->
        line "    %-14s attempts %.0f  disagreements %.0f  hedges %.0f" ep
          (sum_for "proxion_chain_endpoint_attempts_total" ep)
          (sum_for "proxion_chain_endpoint_disagreements_total" ep)
          (sum_for "proxion_chain_endpoint_hedges_total" ep))
      endpoints
  end;
  if view.v_flight <> [] then begin
    line "";
    line "  flight ring: %s"
      (String.concat "  "
         (List.map (fun (k, n) -> Printf.sprintf "%s=%d" k n) view.v_flight));
    List.iter (fun l -> line "    %s" l) view.v_flight_tail
  end;
  Buffer.contents buf
