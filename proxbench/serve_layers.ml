(* The serve-side per-layer metrics, shared by the traced runs of all
   three workloads: watch fills them from its own daemon process, scan
   and emulate from a short session against an in-process daemon. *)

open Common
module G = Dataset.Generate
module D = Serve.Daemon
module A = Proxion.Analysis
module Json = Report.Json

(* Traced runs make fewer rounds: with --trace-out the daemon keeps every
   span of every advance in memory (about 17 MiB of RSS per advance at
   7,000 contracts), so 100 traced advances would need gigabytes.  Twenty
   still leave ten samples beyond each reported percentile. *)
let traced_rounds = 20

(* The in-process configuration that reproduces the spawned daemon's
   analysis, journal and advance script, for warm recovery of its
   journal.  Journal commits are not fsynced: on a shared disk an fsync's
   latency is set by other tenants' I/O (alternating runs put the median
   advance at 400 ms without it and 600 ms with it), so a gate on it
   would measure the neighbours.  The fsynced append is reported as a
   layer of its own (journal.fsync_append_ms). *)
let daemon_config ~journal ~analysis =
  Serve.Config.(
    default |> with_workers 1 |> with_journal (Some journal)
    |> with_journal_fsync false |> with_analysis analysis)

let rec await_ready s =
  match (Session.call s "ready" []).Session.c_result with
  | Ok j when Session.field "ready" j = Some (Json.Bool true) -> ()
  | _ ->
      Unix.sleepf 0.01;
      await_ready s

let median_of_runs k f =
  median
    (List.init k (fun _ ->
         let _, dt = timed f in
         dt))

(* Fill the serve layers from a finished session: client timings, the
   daemon's own request/engine telemetry (deltas across the rounds),
   and timed calls into the journal, snapshot render and tracker on the
   run's last snapshot payload and reports. *)
let fill layers ~(rs : Session.round list) ~before ~after ~payload
    ~recover_s ~reports ~writes ~joined =
  let set = Layers.set layers in
  let n = float_of_int (List.length rs) in
  let mean_of f = sum (List.map f rs) /. n in
  let d ?labels name key = Session.delta ?labels ~before ~after name key in
  let server meths =
    let s =
      sum (List.map (fun m -> d ~labels:[ ("method", m) ] "proxion_serve_request_seconds" "sum") meths)
    and c =
      sum (List.map (fun m -> d ~labels:[ ("method", m) ] "proxion_serve_request_seconds" "count") meths)
    in
    1000.0 *. s /. c
  in
  let advance_server = server [ "advance" ] in
  let reanalysis = 1000.0 *. d "proxion_batch_seconds" "sum" /. n in
  set "advance.residual_ms" (mean_of (fun r -> r.Session.advance_ms) -. advance_server);
  set "daemon.advance_server_ms" advance_server;
  set "engine.reanalysis_ms_per_advance" reanalysis;
  set "daemon.advance_residual_ms" (advance_server -. reanalysis);
  let append_ms fsync =
    let path = work_path "append.jrnl" in
    remove_if_exists path;
    let j, _ = Result.get_ok (Resilience.Journal.open_journal ~fsync path) in
    let ms =
      1000.0
      *. median_of_runs 5 (fun () ->
             Result.get_ok (Resilience.Journal.checkpoint j payload))
    in
    Resilience.Journal.close j;
    remove_if_exists path;
    ms
  in
  set "journal.append_ms" (append_ms false);
  set "journal.fsync_append_ms" (append_ms true);
  let doc = Result.get_ok (Json.parse payload) in
  set "snapshot.render_ms"
    (1000.0 *. median_of_runs 3 (fun () -> Json.to_string ~pretty:false doc));
  set "journal.recover_s" recover_s;
  set "journal.bytes_per_advance" (mean_of (fun r -> float_of_int r.Session.journal_bytes));
  set "tracker.dirty_per_advance" (mean_of (fun r -> float_of_int r.Session.dirty));
  set "advance.new_per_advance" (mean_of (fun r -> float_of_int r.Session.fresh));
  set "tracker.dirty_ms"
    (1000.0 *. median_of_runs 5 (fun () -> Serve.Tracker.dirty ~reports ~writes));
  set "chain.api_calls_per_advance"
    (d ~labels:[ ("method", "eth_getStorageAt") ] "proxion_api_method_calls_total" "value" /. n);
  let reads = List.concat_map (fun r -> List.map (fun (_, _, c) -> c.Session.c_ms) r.Session.reads) rs in
  set "read.p50_ms" (percentile reads 0.5);
  set "read.p90_ms" (percentile reads 0.9);
  let read_server = server (Array.to_list Session.read_methods) in
  set "wire.read_server_ms" read_server;
  set "wire.read_overhead_ms" (mean reads -. read_server);
  set "findings.p50_ms" (percentile (List.map (fun r -> r.Session.findings_ms) rs) 0.5);
  set "store.findings_cached_ms"
    (median (List.map (fun r -> r.Session.cached_findings_ms) rs));
  set "trace.joined_requests" (float_of_int joined)

(* An advance's worth of writes for the timed dirty-set computation:
   two slot proxies (the default script upgrades two per advance),
   drawn by the seeded generator. *)
let writes_for ~seed (reports : A.contract_report list) =
  let slot = Array.of_list (List.filter Check.is_slot_proxy reports) in
  let rng = Dataset.Prng.create seed in
  List.init 2 (fun _ -> (Dataset.Prng.pick rng slot).A.r_address)

let last_payload journal =
  match Resilience.Journal.open_journal journal with
  | Error e -> failwith ("journal: " ^ e)
  | Ok (j, rc) ->
      Resilience.Journal.close j;
      Option.get rc.Resilience.Journal.rec_state

(* Client request ids the daemon's flight recorder holds (its ring keeps
   the newest 256 events). *)
let joined_in_flight s =
  let seen = Hashtbl.create 256 in
  (match (Session.call s "flight" [ ("limit", Json.Int 256) ]).Session.c_result with
  | Ok j -> (
      match Session.field "events" j with
      | Some (Json.List evs) ->
          List.iter
            (fun ev ->
              match Option.bind (Session.field "fields" ev) (Session.field "trace_id") with
              | Some (Json.String id) -> Hashtbl.replace seen id ()
              | _ -> ())
            evs
      | _ -> ())
  | Error e -> failwith ("flight: " ^ e));
  List.length (List.filter (Hashtbl.mem seen) s.Session.trace_ids)

(* A short session against an in-process daemon over the workload's
   landscape and analysis configuration, so the traced scan and emulate
   runs report the serve layers too.  The daemon gets no span collector
   (with one it would hold every span of every advance in memory); the
   trace-id join is read from its flight recorder instead. *)
let in_process layers ~generate ~(land_ : G.t) ~analysis ~seed ~tracer =
  let journal = work_path "inproc.jrnl" in
  remove_if_exists journal;
  let config = daemon_config ~journal ~analysis in
  let d =
    match D.create ~config land_ with Ok d -> d | Error e -> failwith e
  in
  Result.get_ok (D.start d);
  let s = Session.create ~tracer ~trace_seed:seed ~port:(D.port d) () in
  await_ready s;
  let tally = { Session.attempted = 0; failed = 0 } in
  let plan = Session.read_plan ~seed ~rounds:traced_rounds land_ in
  let before = Session.metrics s in
  let cpu () = cpu_of_pid (Unix.getpid ()) in
  let rs = Array.to_list (Array.map (Session.round s tally ~journal ~cpu) plan) in
  let after = Session.metrics s in
  let joined = joined_in_flight s in
  ignore (Session.call s "shutdown" []);
  Session.close s;
  D.wait d;
  if tally.Session.failed > 0 then failwith "in-process daemon session failed";
  let payload = last_payload journal in
  let fresh = generate () in
  let r, recover_s =
    timed (fun () ->
        match D.create ~config fresh with Ok r -> r | Error e -> failwith e)
  in
  let reports = Serve.Store.reports (D.store r) in
  D.stop r;
  fill layers ~rs ~before ~after ~payload ~recover_s ~reports
    ~writes:(writes_for ~seed reports) ~joined
