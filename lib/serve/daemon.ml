module Json = Report.Json
module Address = Evm.Address
module Analysis = Proxion.Analysis
module Analyzer = Proxion.Analyzer
module Serialize = Proxion.Serialize
module Findings = Proxion.Findings
module Generate = Dataset.Generate
module Journal = Resilience.Journal
module Metrics = Obs.Metrics

let snapshot_kind = "proxion.serve.snapshot"
let delta_kind = "proxion.serve.delta"

(* ------------------------------------------------------------------ *)
(* Configuration                                                        *)
(* ------------------------------------------------------------------ *)

module Config = struct
  type t = {
    host : string;
    port : int;
    backlog : int;
    workers : int;
    max_frame : int;
    max_conns : int;
    queue_limit : int;
    idle_timeout_ms : int;
    request_deadline_ms : int;
    drain_grace_ms : int;
    clock : Obs.Clock.t;
    journal : string option;
    journal_fsync : bool;
    advance_seed : int;
    advance_spec : Advance.spec;
    analysis : Proxion.Analysis.Config.t;
    resilience : Resilience.Transport.config;
    slow_ms : int option;
    flight_capacity : int;
    flight_dump : string option;
    trace_seed : int;
  }

  let default =
    {
      host = "127.0.0.1";
      port = 0;
      backlog = 16;
      workers = 2;
      max_frame = Wire.default_max_frame;
      max_conns = 64;
      queue_limit = 32;
      idle_timeout_ms = 10_000;
      request_deadline_ms = 5_000;
      drain_grace_ms = 5_000;
      clock = Obs.Clock.real;
      journal = None;
      journal_fsync = true;
      advance_seed = 7;
      advance_spec = Advance.default_spec;
      analysis = Proxion.Analysis.Config.default;
      resilience = Resilience.Transport.default_config;
      slow_ms = None;
      flight_capacity = 256;
      flight_dump = None;
      trace_seed = 11;
    }

  let with_host host t = { t with host }
  let with_port port t = { t with port }
  let with_backlog backlog t = { t with backlog }
  let with_workers workers t = { t with workers }
  let with_max_frame max_frame t = { t with max_frame }
  let with_max_conns max_conns t = { t with max_conns }
  let with_queue_limit queue_limit t = { t with queue_limit }
  let with_idle_timeout_ms idle_timeout_ms t = { t with idle_timeout_ms }

  let with_request_deadline_ms request_deadline_ms t =
    { t with request_deadline_ms }

  let with_drain_grace_ms drain_grace_ms t = { t with drain_grace_ms }
  let with_clock clock t = { t with clock }
  let with_journal journal t = { t with journal }
  let with_journal_fsync journal_fsync t = { t with journal_fsync }
  let with_advance_seed advance_seed t = { t with advance_seed }
  let with_advance_spec advance_spec t = { t with advance_spec }
  let with_analysis analysis t = { t with analysis }
  let with_resilience resilience t = { t with resilience }
  let with_slow_ms slow_ms t = { t with slow_ms }
  let with_flight_capacity flight_capacity t = { t with flight_capacity }
  let with_flight_dump flight_dump t = { t with flight_dump }
  let with_trace_seed trace_seed t = { t with trace_seed }

  let validate t =
    let module V = Report.Validate in
    match
      V.all
        [
          V.non_empty ~field:"host" t.host;
          V.non_negative ~field:"port" t.port;
          V.positive ~field:"backlog" t.backlog;
          V.positive ~field:"workers" t.workers;
          V.at_least ~field:"max_frame" ~min:1024 t.max_frame;
          V.positive ~field:"max_conns" t.max_conns;
          V.positive ~field:"queue_limit" t.queue_limit;
          V.positive ~field:"idle_timeout_ms" t.idle_timeout_ms;
          V.positive ~field:"request_deadline_ms" t.request_deadline_ms;
          V.non_negative ~field:"drain_grace_ms" t.drain_grace_ms;
          V.non_negative ~field:"advance_spec.deployments"
            t.advance_spec.Advance.deployments;
          V.non_negative ~field:"advance_spec.upgrades"
            t.advance_spec.Advance.upgrades;
          V.non_negative ~field:"advance_spec.reorg_depth"
            t.advance_spec.Advance.reorg_depth;
          V.positive ~field:"flight_capacity" t.flight_capacity;
          (match t.slow_ms with
          | None -> Ok ()
          | Some n -> V.positive ~field:"slow_ms" n);
        ]
    with
    | Ok () -> (
        match Resilience.Transport.validate_config t.resilience with
        | Error e -> Error e
        | Ok _ -> (
            match Proxion.Analysis.Config.validate t.analysis with
            | Ok _ -> Ok t
            | Error e -> Error e))
    | Error e -> Error e
end

(* ------------------------------------------------------------------ *)
(* State                                                                *)
(* ------------------------------------------------------------------ *)

type families = {
  m_requests : Metrics.family;
  m_errors : Metrics.family;
  m_latency : Metrics.family;
  m_inflight : Metrics.family;
  m_connections : Metrics.family;
  m_increments : Metrics.family;
  m_dirty : Metrics.family;
  m_reorgs : Metrics.family;
  m_retracted : Metrics.family;
  m_open : Metrics.family;
  m_shed_conns : Metrics.family;
  m_shed_reqs : Metrics.family;
  m_deadline : Metrics.family;
  m_ready : Metrics.family;
  m_draining : Metrics.family;
}

(* The open journal and the fingerprint of the landscape its base
   snapshots are stamped with. *)
type journal = { jr : Journal.t; jr_landscape : string }

type t = {
  cfg : Config.t;
  landscape : Generate.t;
  analyzer : Analyzer.t;
  store : Store.t;
  advancer : Advance.t;
  journal : journal option;
  registry : Metrics.t;
  log : Obs.Log.t option;
  trace : Obs.Trace.t option;
  flight : Obs.Flight.t;
  trace_gen : Obs.Trace.gen;
  fams : families;
  obs_lock : Mutex.t;
  advance_lock : Mutex.t;
  mutable reorg_log : (int * Advance.reorg) list;
      (* newest first, guarded by advance_lock; rebuilt on warm start *)
  uc : int Atomic.t;  (* cached Analyzer.unique_codes *)
  inflight : int Atomic.t;
  open_conns : int Atomic.t;
  workers_done : int Atomic.t;
  mutable was_recovered : bool;
  (* server *)
  mutable listen_fd : Unix.file_descr option;
  mutable bound_port : int;
  chan : Unix.file_descr Engine.Task_channel.t;
  mutable listener : unit Domain.t option;
  mutable workers : unit Domain.t list;
  stop_requested : bool Atomic.t;
  draining : bool Atomic.t;
  mutable stopped : bool;
  lifecycle : Mutex.t;
}

let store t = t.store
let registry t = t.registry
let recovered t = t.was_recovered
let advances_applied t = Advance.applied t.advancer

let reorgs t =
  Mutex.lock t.advance_lock;
  let log = t.reorg_log in
  Mutex.unlock t.advance_lock;
  List.rev log
let unique_codes t = Atomic.get t.uc
let is_draining t = Atomic.get t.draining

let logf t level msg =
  match t.log with
  | None -> ()
  | Some log ->
      Mutex.lock t.obs_lock;
      Obs.Log.log log ~component:"serve" level msg;
      Mutex.unlock t.obs_lock

let flight t = t.flight

(* Atomic (tmp + rename) so a dump racing a reader — or a crash mid
   write — never leaves a truncated file at the published path. *)
let dump_flight t =
  match t.cfg.Config.flight_dump with
  | None -> ()
  | Some path -> (
      try
        let tmp = path ^ ".tmp" in
        let oc = open_out tmp in
        Obs.Flight.write t.flight oc;
        close_out oc;
        Sys.rename tmp path
      with Sys_error _ -> ())

(* Every admission-gate shed leaves three agreeing records: the
   [reason]-labelled counter, a flight-recorder event, and a structured
   access-log line — a connection turned away with 1002 is never
   invisible to any one of the three surfaces. *)
let note_shed t ~reason =
  Metrics.inc ~labels:[ ("reason", reason) ] t.registry t.fams.m_shed_conns;
  Obs.Flight.record t.flight "shed" ~fields:[ ("reason", Json.String reason) ];
  match t.log with
  | None -> ()
  | Some log ->
      Mutex.lock t.obs_lock;
      Obs.Log.log log ~component:"serve"
        ~fields:
          [
            ("reason", Json.String reason);
            ("code", Json.Int Wire.err_overloaded);
          ]
        Obs.Log.Warn "connection shed";
      Mutex.unlock t.obs_lock

(* Move the analyzer's entries into the store, but for those equal to the
   entry stored: upserting one would leave the store as it was.  Returns
   the entries stored, in drain order — what a delta journals, so an
   unchanged entry costs no journal bytes and recovery folds back the
   same store. *)
let drain_into_store t =
  let changed =
    List.filter
      (fun (e : Analysis.entry) ->
        Store.find t.store e.Analysis.e_report.Analysis.r_address <> Some e)
      (Analyzer.drain_results t.analyzer)
  in
  List.iter (Store.upsert t.store) changed;
  changed

(* ------------------------------------------------------------------ *)
(* Journal: a base snapshot, then one delta per advance                 *)
(* ------------------------------------------------------------------ *)

(* The whole state: written at a cold start and by compaction. *)
let base_payload t ~landscape =
  Json.to_string ~pretty:false
    (Report.Schema.stamp ~kind:snapshot_kind ~landscape
       (Json.Obj
          [
            ("advances", Json.Int (Advance.applied t.advancer));
            ("height", Json.Int (Chain.height t.landscape.Generate.chain));
            ("analyzer", Analyzer.checkpoint t.analyzer);
            ( "entries",
              Json.List
                (List.map Serialize.entry_to_json (Store.entries t.store)) );
          ]))

(* What one advance changed: the orphans it removed, the entries it
   upserted in drain order, and the analyzer as it now stands. *)
let delta_payload t ~removed ~upserted =
  Json.to_string ~pretty:false
    (Report.Schema.stamp ~kind:delta_kind
       (Json.Obj
          [
            ("advance", Json.Int (Advance.applied t.advancer));
            ("height", Json.Int (Chain.height t.landscape.Generate.chain));
            ( "removed",
              Json.List
                (List.map (fun a -> Json.String (Address.to_hex a)) removed) );
            ("upserted", Json.List (List.map Serialize.entry_to_json upserted));
            ("analyzer", Analyzer.checkpoint t.analyzer);
          ]))

let note_commit t ~kind payload =
  Obs.Flight.record t.flight "journal_commit"
    ~fields:
      [
        ("kind", Json.String kind);
        ("advances", Json.Int (Advance.applied t.advancer));
        ("bytes", Json.Int (String.length payload));
      ]

let commit_base t =
  match t.journal with
  | None -> ()
  | Some { jr; jr_landscape } -> (
      let payload = base_payload t ~landscape:jr_landscape in
      match Journal.checkpoint jr payload with
      | Ok () -> note_commit t ~kind:"base" payload
      | Error e -> failwith ("journal checkpoint failed: " ^ e))

(* Past the journal's size threshold, compaction rewrites it as a fresh
   base built from live state.  Best-effort: a failed compaction leaves
   a valid (if large) journal behind. *)
let commit_delta t ~removed ~upserted =
  match t.journal with
  | None -> ()
  | Some { jr; jr_landscape } ->
      let payload = delta_payload t ~removed ~upserted in
      (match
         Result.bind (Journal.append jr payload) (fun () -> Journal.commit jr)
       with
      | Ok () -> note_commit t ~kind:"delta" payload
      | Error e -> failwith ("journal checkpoint failed: " ^ e));
      if Journal.compaction_due jr then begin
        let base = base_payload t ~landscape:jr_landscape in
        match Journal.compact jr base with
        | Ok () -> note_commit t ~kind:"base" base
        | Error _ -> ()
      end

(* ------------------------------------------------------------------ *)
(* Construction                                                         *)
(* ------------------------------------------------------------------ *)

let make_metrics registry =
  {
    m_requests =
      Metrics.counter registry ~help:"Requests served, by method"
        "proxion_serve_requests_total";
    m_errors =
      Metrics.counter registry ~help:"Error responses, by method"
        "proxion_serve_errors_total";
    m_latency =
      Metrics.histogram registry ~volatile:true
        ~help:"Request handling latency (seconds), by method"
        ~buckets:[ 0.0001; 0.0005; 0.001; 0.005; 0.025; 0.1; 0.5; 2.0 ]
        "proxion_serve_request_seconds";
    m_inflight =
      Metrics.gauge registry ~volatile:true
        ~help:"Requests currently in flight" "proxion_serve_inflight_requests";
    m_connections =
      Metrics.counter registry ~help:"Connections accepted"
        "proxion_serve_connections_total";
    m_increments =
      Metrics.counter registry ~help:"Incremental advances applied"
        "proxion_serve_increments_total";
    m_dirty =
      Metrics.counter registry ~help:"Subjects re-analyzed by increments"
        "proxion_serve_dirty_subjects_total";
    m_reorgs =
      Metrics.counter registry ~help:"Chain reorganizations rolled back"
        "proxion_serve_reorgs_total";
    m_retracted =
      Metrics.counter registry
        ~help:"Findings retracted because their deployment was orphaned"
        "proxion_serve_retracted_findings_total";
    m_open =
      Metrics.gauge registry ~volatile:true
        ~help:"Client connections currently open"
        "proxion_serve_open_connections";
    m_shed_conns =
      Metrics.counter registry
        ~help:"Connections shed by the admission gate, by reason"
        "proxion_serve_shed_connections_total";
    m_shed_reqs =
      Metrics.counter registry
        ~help:"Requests shed after parse, by method and reason"
        "proxion_serve_shed_requests_total";
    m_deadline =
      Metrics.counter registry
        ~help:"Requests that exceeded their deadline budget, by method"
        "proxion_serve_deadline_exceeded_total";
    m_ready =
      Metrics.gauge registry
        ~help:"Readiness: 1 when the store is loaded and not draining"
        "proxion_serve_ready";
    m_draining =
      Metrics.gauge registry ~help:"1 while the daemon is draining"
        "proxion_serve_draining";
  }

let ( let* ) = Result.bind

(* The journaled state a warm start restores. *)
type recovered = {
  rv_advances : int;
  rv_height : int;
  rv_analyzer : Json.t;  (** from the newest record *)
  rv_store : Store.t;
}

(* Fold the deltas onto the base in order.  The base must carry this
   landscape's fingerprint, and each delta must be the advance after the
   state it lands on. *)
let fold_journal ~landscape records =
  match records with
  | [] -> Ok None
  | base :: deltas ->
      let* base =
        Result.bind (Json.parse base)
          (Report.Schema.check ~kind:snapshot_kind ~landscape)
      in
      let* advances = Json.int "advances" base in
      let* height = Json.int "height" base in
      let* analyzer = Json.field "analyzer" Result.ok base in
      let* entries = Json.list "entries" Serialize.entry_of_json base in
      let store = Store.create () in
      List.iter (Store.upsert store) entries;
      let rec fold (rv : recovered) = function
        | [] -> Ok (Some rv)
        | delta :: rest ->
            let* d =
              Result.bind (Json.parse delta)
                (Report.Schema.check ~kind:delta_kind)
            in
            let* index = Json.int "advance" d in
            if index <> rv.rv_advances + 1 then
              Error
                (Printf.sprintf
                   "journal delta for advance %d follows advance %d (a gap \
                    in the journal)"
                   index rv.rv_advances)
            else
              let* height = Json.int "height" d in
              let* analyzer = Json.field "analyzer" Result.ok d in
              let* removed =
                Json.list "removed" Serialize.address_of_json d
              in
              let* upserted = Json.list "upserted" Serialize.entry_of_json d in
              List.iter (fun a -> ignore (Store.remove store a)) removed;
              List.iter (Store.upsert store) upserted;
              fold
                {
                  rv with
                  rv_advances = index;
                  rv_height = height;
                  rv_analyzer = analyzer;
                }
                rest
      in
      fold
        {
          rv_advances = advances;
          rv_height = height;
          rv_analyzer = analyzer;
          rv_store = store;
        }
        deltas

(* Breaker flips and quorum quarantines reach the flight recorder
   straight from the transport layer, whatever worker domain produced
   them — the ring's lock is the only synchronization needed. *)
let transport_flight flight (ev : Resilience.Transport.event) =
  match ev with
  | Resilience.Transport.Circuit_opened { endpoint; failures } ->
      Obs.Flight.record flight "breaker_open"
        ~fields:
          [
            ("endpoint", Json.String endpoint);
            ("failures", Json.Int failures);
          ]
  | Resilience.Transport.Circuit_closed { endpoint } ->
      Obs.Flight.record flight "breaker_close"
        ~fields:[ ("endpoint", Json.String endpoint) ]
  | Resilience.Transport.Quorum_disagreement { meth; endpoint } ->
      Obs.Flight.record flight "quorum_quarantine"
        ~fields:
          [ ("method", Json.String meth); ("endpoint", Json.String endpoint) ]
  | Resilience.Transport.Hedged { meth; primary; secondary } ->
      Obs.Flight.record flight "hedge"
        ~fields:
          [
            ("method", Json.String meth);
            ("primary", Json.String primary);
            ("secondary", Json.String secondary);
          ]
  | Resilience.Transport.Retry _ | Resilience.Transport.Dispatched _ -> ()

let create ?(config = Config.default) ?registry ?log ?trace landscape =
  let* config =
    Result.map_error Report.Validate.to_string (Config.validate config)
  in
  let registry = match registry with Some r -> r | None -> Metrics.create () in
  let chain = landscape.Generate.chain in
  let source = landscape.Generate.source_of in
  let advancer =
    Advance.create ~seed:config.Config.advance_seed
      ~spec:config.Config.advance_spec landscape
  in
  let* journal_and_state =
    match config.Config.journal with
    | None -> Ok (None, None)
    | Some path -> (
        (* Fingerprint the landscape before any advance touches it. *)
        let landscape_fp = Generate.fingerprint landscape in
        let* j, recovery =
          Journal.open_journal ~fsync:config.Config.journal_fsync path
        in
        match
          fold_journal ~landscape:landscape_fp recovery.Journal.rec_records
        with
        | Ok recovered ->
            Ok (Some { jr = j; jr_landscape = landscape_fp }, recovered)
        | Error e ->
            Journal.close j;
            Error (path ^ ": " ^ e))
  in
  let journal, recovered = journal_and_state in
  let fams = make_metrics registry in
  let finish analyzer store was_recovered =
    let t =
      {
        cfg = config;
        landscape;
        analyzer;
        store;
        advancer;
        journal;
        registry;
        log;
        trace;
        flight =
          Obs.Flight.create ~clock:config.Config.clock
            ~capacity:config.Config.flight_capacity ();
        trace_gen = Obs.Trace.gen ~seed:config.Config.trace_seed;
        fams;
        obs_lock = Mutex.create ();
        advance_lock = Mutex.create ();
        reorg_log = [];
        uc = Atomic.make 0;
        inflight = Atomic.make 0;
        open_conns = Atomic.make 0;
        workers_done = Atomic.make 0;
        was_recovered;
        listen_fd = None;
        bound_port = 0;
        chan = Engine.Task_channel.create ();
        listener = None;
        workers = [];
        stop_requested = Atomic.make false;
        draining = Atomic.make false;
        stopped = false;
        lifecycle = Mutex.create ();
      }
    in
    Atomic.set t.uc (Analyzer.unique_codes analyzer);
    Analyzer.set_transport_observer analyzer (Some (transport_flight t.flight));
    Metrics.set registry fams.m_ready 1.0;
    Metrics.set registry fams.m_draining 0.0;
    t
  in
  match recovered with
  | Some
      {
        rv_advances = advances;
        rv_height = height;
        rv_analyzer;
        rv_store = store;
      } -> (
      (* Warm start: replay the scripted advances onto the regenerated
         landscape — capturing any seeded reorgs they carry, so the
         rollback history survives a crash — then restore the analyzer
         and the folded store, no re-analysis. *)
      let replayed_reorgs = ref [] in
      for _ = 1 to advances do
        let s = Advance.apply advancer in
        match s.Advance.a_reorg with
        | Some rg -> replayed_reorgs := (s.Advance.a_index, rg) :: !replayed_reorgs
        | None -> ()
      done;
      let restored =
        if Chain.height chain <> height then
          Error
            (Printf.sprintf
               "journal snapshot height %d does not match replayed chain \
                height %d"
               height (Chain.height chain))
        else
          let analysis = config.Config.analysis in
          Analyzer.restore ~batch_size:analysis.Analysis.Config.batch_size
            ~domains:analysis.Analysis.Config.domains
            ~resilience:config.Config.resilience ~chain ~source rv_analyzer
      in
      match restored with
      | Error e ->
          Option.iter (fun { jr; _ } -> Journal.close jr) journal;
          Error e
      | Ok analyzer ->
          Store.set_generation store advances;
          let t = finish analyzer store true in
          t.reorg_log <- !replayed_reorgs;
          Analyzer.instrument ?trace t.registry analyzer;
          ignore (Analyzer.drain_results analyzer);
          logf t Obs.Log.Info
            (Printf.sprintf "recovered warm: %d subjects, %d advances"
               (Store.size store) advances);
          Ok t)
  | None ->
      (* Cold start: full landscape analysis on the resident analyzer. *)
      let analyzer =
        Analyzer.create ~config:config.Config.analysis
          ~resilience:config.Config.resilience ~chain ~source ()
      in
      let store = Store.create () in
      let t = finish analyzer store false in
      Analyzer.instrument ?trace t.registry analyzer;
      Analyzer.submit_all analyzer;
      Analyzer.run analyzer;
      let n = List.length (drain_into_store t) in
      Atomic.set t.uc (Analyzer.unique_codes analyzer);
      logf t Obs.Log.Info
        (Printf.sprintf "initial analysis complete: %d subjects" n);
      commit_base t;
      Ok t

(* ------------------------------------------------------------------ *)
(* Incremental advances                                                 *)
(* ------------------------------------------------------------------ *)

type advance_result = {
  adv_summary : Advance.summary;
  adv_dirty : int;
  adv_new : int;
  adv_retracted : int;
}

let advance ?ctx t =
  Mutex.lock t.advance_lock;
  Analyzer.set_request_ctx t.analyzer ctx;
  Fun.protect
    ~finally:(fun () ->
      Analyzer.set_request_ctx t.analyzer None;
      Mutex.unlock t.advance_lock)
    (fun () ->
      let summary = Advance.apply t.advancer in
      let reports = Store.reports t.store in
      let orphaned, reverted =
        match summary.Advance.a_reorg with
        | None -> ([], [])
        | Some rg -> (rg.Advance.rg_orphaned, rg.Advance.rg_reverted_writes)
      in
      (* Dirtiness is computed over the PRE-retraction report set: an
         orphaned deployment may have been the dedup owner of a code
         hash shared with surviving twins, and only its still-stored
         report can propagate that hash into the dirty set. *)
      let writes = summary.Advance.a_writes @ reverted @ orphaned in
      let dirty = Tracker.dirty ~reports ~writes in
      List.iter
        (Analyzer.invalidate_code_hash t.analyzer)
        (Tracker.invalidation_hashes ~dirty);
      (* Every other slot proxy replays its Algorithm 1 record: only the
         storage written here moved. *)
      Analyzer.drop_records t.analyzer writes;
      (* Retract orphans: their deployments are no longer canonical.
         Findings retracted = the verdict-count delta of the removals. *)
      let retracted, removed =
        if orphaned = [] then (0, [])
        else begin
          let uc = unique_codes t in
          let before = List.length (Store.findings t.store ~unique_codes:uc) in
          let removed = List.filter (Store.remove t.store) orphaned in
          let after = List.length (Store.findings t.store ~unique_codes:uc) in
          (max 0 (before - after), removed)
        end
      in
      let is_orphan a = List.exists (Address.equal a) orphaned in
      let dirty_addrs =
        List.filter_map
          (fun (r : Analysis.contract_report) ->
            if is_orphan r.Analysis.r_address then None
            else Some r.Analysis.r_address)
          dirty
      in
      Analyzer.submit t.analyzer
        (dirty_addrs @ summary.Advance.a_new_contracts);
      Analyzer.run t.analyzer;
      let upserted = drain_into_store t in
      Atomic.set t.uc (Analyzer.unique_codes t.analyzer);
      Store.bump_generation t.store;
      commit_delta t ~removed ~upserted;
      Metrics.inc t.registry t.fams.m_increments;
      Metrics.inc
        ~by:(float_of_int (List.length dirty_addrs))
        t.registry t.fams.m_dirty;
      (match summary.Advance.a_reorg with
      | None -> ()
      | Some rg ->
          t.reorg_log <- (summary.Advance.a_index, rg) :: t.reorg_log;
          Obs.Flight.record t.flight "reorg"
            ~fields:
              [
                ("advance", Json.Int summary.Advance.a_index);
                ("depth", Json.Int rg.Advance.rg_depth);
                ("rollback_to", Json.Int rg.Advance.rg_rollback_to);
                ("orphaned", Json.Int (List.length rg.Advance.rg_orphaned));
                ("retracted", Json.Int retracted);
              ];
          Metrics.inc t.registry t.fams.m_reorgs;
          Metrics.inc
            ~by:(float_of_int retracted)
            t.registry t.fams.m_retracted;
          logf t Obs.Log.Warn
            (Printf.sprintf
               "reorg at advance %d: depth %d, rolled back to height %d, %d \
                orphaned, %d findings retracted"
               summary.Advance.a_index rg.Advance.rg_depth
               rg.Advance.rg_rollback_to
               (List.length rg.Advance.rg_orphaned)
               retracted));
      Obs.Flight.record t.flight "advance"
        ~fields:
          [
            ("index", Json.Int summary.Advance.a_index);
            ("height", Json.Int summary.Advance.a_height);
            ("dirty", Json.Int (List.length dirty_addrs));
            ("new", Json.Int (List.length summary.Advance.a_new_contracts));
          ];
      logf t Obs.Log.Info
        (Printf.sprintf "advance %d: %d dirty, %d new, height %d"
           summary.Advance.a_index (List.length dirty_addrs)
           (List.length summary.Advance.a_new_contracts)
           summary.Advance.a_height);
      {
        adv_summary = summary;
        adv_dirty = List.length dirty_addrs;
        adv_new = List.length summary.Advance.a_new_contracts;
        adv_retracted = retracted;
      })

(* ------------------------------------------------------------------ *)
(* Query dispatch                                                       *)
(* ------------------------------------------------------------------ *)

(* Params are read through the Report.Json readers: an absent or [null]
   param takes its default, and any reader [Error] is invalid params. *)
let param r =
  Result.map_error
    (fun message -> { Wire.code = Wire.err_invalid_params; message })
    r

let entry_for t params =
  let* addr = param (Json.field "address" Serialize.address_of_json params) in
  match Store.find t.store addr with
  | Some e -> Ok (addr, e)
  | None ->
      Error
        {
          Wire.code = Wire.err_unknown_address;
          message = "address not in the analyzed population";
        }

(* The severity level param [name], when present. *)
let severity_param params name =
  param
    (let* level = Json.optional Json.string name params in
     match Option.map Findings.severity_of_string level with
     | None -> Ok None
     | Some (Some _ as sev) -> Ok sev
     | Some None -> Error (name ^ " must be critical|high|medium|info"))

(* Deadline budgets: [deadline] is an absolute time on the config clock;
   [None] (direct library calls) means no budget. *)
let deadline_passed t = function
  | None -> false
  | Some d -> Obs.Clock.now t.cfg.Config.clock >= d

let deadline_error =
  {
    Wire.code = Wire.err_deadline_exceeded;
    message = "request deadline exceeded";
  }

let handle_get_status t =
  let report = Store.report t.store ~unique_codes:(unique_codes t) in
  let stats = report.Analysis.stats in
  Ok
    (Json.Obj
       [
         ("contracts", Json.Int stats.Analysis.s_analyzed);
         ("proxies", Json.Int stats.Analysis.s_proxies);
         ("unique_codes", Json.Int stats.Analysis.s_unique_codes);
         ("height", Json.Int (Chain.height t.landscape.Generate.chain));
         ("advances", Json.Int (advances_applied t));
         ("generation", Json.Int (Store.generation t.store));
         ("recovered", Json.Bool t.was_recovered);
       ])

let handle_health t =
  Ok
    (Json.Obj
       [
         ("status", Json.String "ok");
         ("draining", Json.Bool (Atomic.get t.draining));
       ])

let handle_ready t =
  let loaded = Store.size t.store > 0 in
  let ready = loaded && not (Atomic.get t.draining) in
  Ok
    (Json.Obj
       [
         ("ready", Json.Bool ready);
         ("store_loaded", Json.Bool loaded);
         ("draining", Json.Bool (Atomic.get t.draining));
         ("subjects", Json.Int (Store.size t.store));
       ])

let handle_is_proxy t params =
  let* addr, e = entry_for t params in
  let r = e.Analysis.e_report in
  Ok
    (Json.Obj
       [
         ("address", Json.String (Address.to_hex addr));
         ( "is_proxy",
           Json.Bool (Proxion.Proxy_detect.is_proxy r.Analysis.r_detection) );
         ("detection", Serialize.detection_to_json r.Analysis.r_detection);
         ( "standard",
           match r.Analysis.r_standard with
           | Some s ->
               Json.String (Proxion.Standard_classify.to_string s)
           | None -> Json.Null );
         ("dedup_hit", Json.Bool r.Analysis.r_dedup_hit);
       ])

let handle_logic_history t params =
  let* addr, e = entry_for t params in
  let r = e.Analysis.e_report in
  Ok
    (Json.Obj
       [
         ("address", Json.String (Address.to_hex addr));
         ( "resolution",
           match r.Analysis.r_resolution with
           | Some res -> Serialize.resolution_to_json res
           | None -> Json.Null );
       ])

let handle_collisions t params =
  let* addr, e = entry_for t params in
  let r = e.Analysis.e_report in
  Ok
    (Json.Obj
       [
         ("address", Json.String (Address.to_hex addr));
         ( "pairs",
           Json.List
             (List.map Serialize.pair_report_to_json r.Analysis.r_pairs) );
       ])

let handle_list_findings t params =
  let* offset = param (Json.optional Json.int "offset" params) in
  let* limit = param (Json.optional Json.int "limit" params) in
  let offset = max 0 (Option.value ~default:0 offset) in
  let limit = min 500 (max 0 (Option.value ~default:50 limit)) in
  (* [severity] wins: [min_severity] is not read beside it. *)
  let* keep =
    let* exact = severity_param params "severity" in
    match exact with
    | Some sev -> Ok (Some (fun f -> f.Findings.f_severity = sev))
    | None ->
        let* least = severity_param params "min_severity" in
        Ok
          (Option.map
             (fun sev f -> compare f.Findings.f_severity sev <= 0)
             least)
  in
  let all = Store.findings t.store ~unique_codes:(unique_codes t) in
  let filtered = match keep with None -> all | Some p -> List.filter p all in
  let page =
    List.filteri (fun i _ -> i >= offset && i - offset < limit) filtered
  in
  Ok
    (Json.Obj
       [
         ("total", Json.Int (List.length filtered));
         ("offset", Json.Int offset);
         ("count", Json.Int (List.length page));
         ("findings", Findings.to_json page);
       ])

let handle_report t =
  Ok (Serialize.report_to_json (Store.report t.store ~unique_codes:(unique_codes t)))

let handle_metrics t params =
  let* format = param (Json.optional Json.string "format" params) in
  match format with
  | None | Some "prometheus" ->
      Ok (Json.String (Metrics.to_prometheus t.registry))
  | Some "json" -> Ok (Metrics.to_json t.registry)
  | Some _ ->
      Error
        {
          Wire.code = Wire.err_invalid_params;
          message = "format must be \"prometheus\" or \"json\"";
        }

(* shutdown, not close: close(2) does not wake a thread blocked in
   accept(2), shutdown(2) does.  The listener closes the descriptor
   itself when its loop exits. *)
let wake_listener t =
  match t.listen_fd with
  | Some fd -> (
      try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
  | None -> ()

(* Drain: readiness flips before anything else, so an orchestrator
   watching [ready] reroutes traffic before connections start bouncing.
   The listener keeps accepting but sheds every connection with the
   structured overloaded error until {!stop} tears it down.  Idempotent
   and safe from a signal handler. *)
let request_drain t =
  if not (Atomic.exchange t.draining true) then begin
    Metrics.set t.registry t.fams.m_ready 0.0;
    Metrics.set t.registry t.fams.m_draining 1.0;
    Obs.Flight.record t.flight "drain";
    logf t Obs.Log.Info "draining: refusing new work, finishing in-flight";
    dump_flight t
  end

let request_stop t =
  Atomic.set t.stop_requested true;
  request_drain t;
  wake_listener t

let reorg_to_json (index, rg) =
  let addrs l = Json.List (List.map (fun a -> Json.String (Address.to_hex a)) l) in
  Json.Obj
    [
      ("advance", Json.Int index);
      ("depth", Json.Int rg.Advance.rg_depth);
      ("rollback_to", Json.Int rg.Advance.rg_rollback_to);
      ("orphaned", addrs rg.Advance.rg_orphaned);
      ("reverted_writes", addrs rg.Advance.rg_reverted_writes);
    ]

let handle_reorgs t =
  Mutex.lock t.advance_lock;
  let log = t.reorg_log in
  Mutex.unlock t.advance_lock;
  Ok
    (Json.Obj
       [
         ("count", Json.Int (List.length log));
         ("reorgs", Json.List (List.rev_map reorg_to_json log));
       ])

let handle_advance t ~deadline ?ctx params =
  let* count = param (Json.optional Json.int "count" params) in
  let count = min 64 (max 1 (Option.value ~default:1 count)) in
  let dirty = ref 0 and fresh = ref 0 and last = ref None in
  let reorgs = ref 0 and retracted = ref 0 in
  let applied = ref 0 in
  (try
     for _ = 1 to count do
       if deadline_passed t deadline then raise Exit;
       let r = advance ?ctx t in
       incr applied;
       dirty := !dirty + r.adv_dirty;
       fresh := !fresh + r.adv_new;
       retracted := !retracted + r.adv_retracted;
       (match r.adv_summary.Advance.a_reorg with
       | Some _ -> incr reorgs
       | None -> ());
       last := Some r
     done
   with Exit -> ());
  if !applied < count then
    Error
      {
        Wire.code = Wire.err_deadline_exceeded;
        message =
          Printf.sprintf
            "deadline exceeded after %d of %d advances (the %d applied are \
             committed)"
            !applied count !applied;
      }
  else
    let height =
      match !last with
      | Some r -> r.adv_summary.Advance.a_height
      | None -> Chain.height t.landscape.Generate.chain
    in
    Ok
      (Json.Obj
         [
           ("applied", Json.Int count);
           ("advances", Json.Int (advances_applied t));
           ("height", Json.Int height);
           ("dirty", Json.Int !dirty);
           ("new_contracts", Json.Int !fresh);
           ("reorgs", Json.Int !reorgs);
           ("retracted_findings", Json.Int !retracted);
         ])

(* Live re-analysis of one subject under the request's trace context.
   The subject's dedup entry and Algorithm 1 record are dropped first so
   detection and resolution actually re-run — archive endpoint attempts
   (quorum votes, hedges) and EVM frames all execute inside the request
   span instead of short-circuiting on the cache or replaying the
   record.  The fresh report is returned to the caller and then
   DISCARDED: the resident store must stay byte-identical to a daemon
   that never saw this query (a dedup twin's fresh report would
   otherwise flip its [r_dedup_hit]), so queries are observably
   side-effect-free. *)
let handle_query t ~deadline ?ctx params =
  let* addr, e = entry_for t params in
  if deadline_passed t deadline then Error deadline_error
  else begin
    Mutex.lock t.advance_lock;
    Analyzer.set_request_ctx t.analyzer ctx;
    Fun.protect
      ~finally:(fun () ->
        Analyzer.set_request_ctx t.analyzer None;
        Mutex.unlock t.advance_lock)
      (fun () ->
        Analyzer.invalidate_code_hash t.analyzer
          e.Analysis.e_report.Analysis.r_code_hash;
        Analyzer.drop_records t.analyzer [ addr ];
        Analyzer.submit t.analyzer [ addr ];
        Analyzer.run t.analyzer;
        let fresh =
          List.find_map
            (fun (e : Analysis.entry) ->
              let r = e.Analysis.e_report in
              if Address.equal r.Analysis.r_address addr then Some r else None)
            (Analyzer.drain_results t.analyzer)
        in
        Atomic.set t.uc (Analyzer.unique_codes t.analyzer);
        match fresh with
        | None ->
            Error
              {
                Wire.code = Wire.err_internal;
                message = "live re-analysis produced no report";
              }
        | Some r ->
            Ok
              (Json.Obj
                 ([
                    ("address", Json.String (Address.to_hex addr));
                    ("live", Json.Bool true);
                    ("report", Serialize.contract_report_to_json r);
                  ]
                 @
                 match ctx with
                 | None -> []
                 | Some c ->
                     [
                       ( "trace_id",
                         Json.String (Obs.Trace.id_to_hex c.Obs.Trace.trace_id)
                       );
                     ])))
  end

let handle_flight t params =
  let* limit = param (Json.optional Json.int "limit" params) in
  Ok (Obs.Flight.to_json ?limit t.flight)

(* Methods a draining daemon still answers: the health surface (so
   orchestrators can watch the drain), metrics scrapes, the flight
   recorder (post-incident triage is exactly when it is wanted), and a
   repeated shutdown.  Everything else is shed with a structured
   error. *)
let allowed_while_draining = function
  | "health" | "ready" | "metrics" | "flight" | "shutdown" -> true
  | _ -> false

(* A present [params] is an object; anything else would read as no
   params and run the method with its defaults. *)
let params_shape_ok = function Json.Obj _ | Json.Null -> true | _ -> false

let dispatch t ~deadline ?ctx meth params =
  if Atomic.get t.draining && not (allowed_while_draining meth) then
    Error
      {
        Wire.code = Wire.err_overloaded;
        message = "daemon is draining; request shed";
      }
  else if deadline_passed t deadline then Error deadline_error
  else if not (params_shape_ok params) then
    Error
      {
        Wire.code = Wire.err_invalid_params;
        message = "params must be an object";
      }
  else
    match meth with
    | "get_status" -> handle_get_status t
    | "health" -> handle_health t
    | "ready" -> handle_ready t
    | "is_proxy" -> handle_is_proxy t params
    | "logic_history" -> handle_logic_history t params
    | "collisions" -> handle_collisions t params
    | "list_findings" -> handle_list_findings t params
    | "report" -> handle_report t
    | "metrics" -> handle_metrics t params
    | "advance" -> handle_advance t ~deadline ?ctx params
    | "query" -> handle_query t ~deadline ?ctx params
    | "flight" -> handle_flight t params
    | "reorgs" -> handle_reorgs t
    | "shutdown" ->
        request_drain t;
        Ok
          (Json.Obj
             [ ("stopping", Json.Bool true); ("draining", Json.Bool true) ])
    | _ ->
        Error
          {
            Wire.code = Wire.err_method_not_found;
            message = Printf.sprintf "unknown method %S" meth;
          }

(* Every request gets a trace context: either adopted from the wire
   (the server span becomes a child of the client's, so cross-process
   traces join on trace_id) or drawn from the daemon's seeded
   generator.  The context exists even when no trace collector is
   attached — it still names the request in the flight recorder, the
   access log and the latency exemplars. *)
let request_span_ctx t (req : Wire.request) =
  match req.Wire.rq_trace with
  | Some tc -> (
      match
        ( Obs.Trace.id_of_hex tc.Wire.tc_trace_id,
          Obs.Trace.id_of_hex tc.Wire.tc_span_id )
      with
      | Some trace_id, Some span_id ->
          let client = { Obs.Trace.trace_id; span_id } in
          (Obs.Trace.child client ~index:0, Some client)
      | _ -> (Obs.Trace.next_ctx t.trace_gen, None))
  | None -> (Obs.Trace.next_ctx t.trace_gen, None)

(* [(method, trace_id, spans, error code, response)]: what the socket
   path needs of a handled request — the method and trace id for the
   access log, the latency exemplar and the flight recorder, its span
   tree when the slow-request log may want it, and the code of the error
   it was answered with, if any. *)
let handle_traced ?deadline t payload =
  match Wire.request_of_string payload with
  | Error err ->
      ( None,
        None,
        None,
        Some err.Wire.code,
        Wire.response_error ~id:Json.Null err )
  | Ok req -> (
      let id = req.Wire.rq_id in
      let meth = req.Wire.rq_method in
      let ctx, parent_ctx = request_span_ctx t req in
      (* The collector may stream and keep nothing, so the request's
         spans are held until the slow-request log has decided. *)
      let held =
        match t.trace with
        | Some tr when t.cfg.Config.slow_ms <> None && t.log <> None ->
            Obs.Trace.hold tr ctx;
            Some tr
        | _ -> None
      in
      let sp =
        Option.map
          (fun tr ->
            Obs.Trace.start_span ~cat:"request" ?parent_ctx ~ctx tr meth)
          t.trace
      in
      let finish outcome =
        let err, response =
          match outcome with
          | Ok result -> (None, Wire.response_ok ~id result)
          | Error e -> (Some e.Wire.code, Wire.response_error ~id e)
        in
        (* One ceiling for both directions: a response too large to frame
           becomes a structured error for this request id, so the
           connection survives and the error is counted and logged. *)
        let err, response =
          let n = String.length response in
          if n <= t.cfg.Config.max_frame then (err, response)
          else
            ( Some Wire.err_oversized,
              Wire.response_error ~id
                {
                  Wire.code = Wire.err_oversized;
                  message =
                    Printf.sprintf "response of %d bytes exceeds limit %d" n
                      t.cfg.Config.max_frame;
                } )
        in
        Option.iter
          (Obs.Trace.finish_span
             ~args:
               [ ("method", Json.String meth); ("ok", Json.Bool (err = None)) ])
          sp;
        ( Some meth,
          Some (Obs.Trace.id_to_hex ctx.Obs.Trace.trace_id),
          Option.map (fun tr -> Obs.Trace.release tr ctx) held,
          err,
          response )
      in
      finish
        (try dispatch t ~deadline ~ctx meth req.Wire.rq_params
         with e ->
           Error
             { Wire.code = Wire.err_internal; message = Printexc.to_string e }))

let handle ?deadline t payload =
  let meth, _, _, _, response = handle_traced ?deadline t payload in
  (meth, response)

(* ------------------------------------------------------------------ *)
(* Serving                                                              *)
(* ------------------------------------------------------------------ *)

let access_log t meth ?trace_id ~ok ~bytes_in ~bytes_out ~elapsed () =
  match t.log with
  | None -> ()
  | Some log ->
      Mutex.lock t.obs_lock;
      Obs.Log.log log ~component:"serve"
        ~fields:
          ([
             ("method", Json.String (Option.value ~default:"?" meth));
             ("ok", Json.Bool ok);
             ("bytes_in", Json.Int bytes_in);
             ("bytes_out", Json.Int bytes_out);
             ("seconds", Json.Float elapsed);
           ]
          @
          match trace_id with
          | None -> []
          | Some id -> [ ("trace_id", Json.String id) ])
        Obs.Log.Info "request";
      Mutex.unlock t.obs_lock

let observe_request t meth ~trace_id ~spans ~err ~bytes_in ~bytes_out
    ~elapsed =
  let name = Option.value ~default:"invalid" meth in
  let labels = [ ("method", name) ] in
  Metrics.inc ~labels t.registry t.fams.m_requests;
  (match err with
  | None -> ()
  | Some code ->
      Metrics.inc ~labels t.registry t.fams.m_errors;
      if code = Wire.err_deadline_exceeded then
        Metrics.inc ~labels t.registry t.fams.m_deadline
      else if code = Wire.err_overloaded then
        Metrics.inc
          ~labels:[ ("method", name); ("reason", "draining") ]
          t.registry t.fams.m_shed_reqs);
  (* The exemplar: the max-latency observation per method keeps its
     trace_id, so the p99 spike in a dashboard names the exact trace to
     pull from the daemon's trace file. *)
  Metrics.observe ~labels ?exemplar:trace_id t.registry t.fams.m_latency
    elapsed;
  Obs.Flight.record t.flight "request"
    ~fields:
      ([
         ("method", Json.String name);
         ("ok", Json.Bool (err = None));
         ("seconds", Json.Float elapsed);
       ]
      @
      match trace_id with
      | None -> []
      | Some id -> [ ("trace_id", Json.String id) ]);
  (match (t.cfg.Config.slow_ms, t.log) with
  | Some slow_ms, Some log when elapsed *. 1000.0 >= float_of_int slow_ms ->
      (* Slow request: emit the full span tree inline, so the log line
         alone is enough to see where the time went. *)
      let spans =
        match spans with Some tree -> [ ("spans", tree) ] | None -> []
      in
      Mutex.lock t.obs_lock;
      Obs.Log.log log ~component:"serve"
        ~fields:
          ([
             ("method", Json.String name);
             ("seconds", Json.Float elapsed);
             ("slow_ms", Json.Int slow_ms);
           ]
          @ (match trace_id with
            | None -> []
            | Some id -> [ ("trace_id", Json.String id) ])
          @ spans)
        Obs.Log.Warn "slow request";
      Mutex.unlock t.obs_lock
  | _ -> ());
  access_log t meth ?trace_id ~ok:(err = None) ~bytes_in ~bytes_out ~elapsed ()

let close_connection t fd =
  (try Unix.close fd with Unix.Unix_error _ -> ());
  let n = Atomic.fetch_and_add t.open_conns (-1) - 1 in
  Metrics.set t.registry t.fams.m_open (float_of_int n)

let serve_connection t fd =
  Metrics.inc t.registry t.fams.m_connections;
  let clock = t.cfg.Config.clock in
  let idle_s = float_of_int t.cfg.Config.idle_timeout_ms /. 1000.0 in
  (* SO_RCVTIMEO is the poll granularity of the idle sweep, the drain
     abort and the stop flag — not the deadline itself.  SO_SNDTIMEO is
     the write deadline: a client that never reads its responses blocks
     our write in the kernel; the timeout turns that into a dropped
     connection instead of a wedged worker. *)
  let poll_s = Float.max 0.02 (Float.min 0.25 (idle_s /. 4.0)) in
  (try
     Unix.setsockopt_float fd Unix.SO_RCVTIMEO poll_s;
     Unix.setsockopt_float fd Unix.SO_SNDTIMEO idle_s
   with Unix.Unix_error _ -> ());
  let should_abort () =
    Atomic.get t.stop_requested || Atomic.get t.draining
  in
  let closed = ref false in
  while not !closed do
    (* The whole next frame — first byte to last — must arrive within
       the idle window: a slowloris trickling one byte per poll cannot
       hold the worker past it. *)
    let idle_deadline = Obs.Clock.now clock +. idle_s in
    match
      Wire.read_frame ~max_frame:t.cfg.Config.max_frame ~clock
        ~deadline:idle_deadline ~should_abort fd
    with
    | Ok payload -> (
        let up = Atomic.fetch_and_add t.inflight 1 + 1 in
        Metrics.set t.registry t.fams.m_inflight (float_of_int up);
        (* The config clock, not gettimeofday: under a virtual clock the
           measured latency — and with it the flight recorder and the
           exemplars — is deterministic. *)
        let t0 = Obs.Clock.now clock in
        let req_deadline =
          t0 +. (float_of_int t.cfg.Config.request_deadline_ms /. 1000.0)
        in
        let meth, trace_id, spans, err, response =
          handle_traced ~deadline:req_deadline t payload
        in
        let elapsed = Obs.Clock.now clock -. t0 in
        let down = Atomic.fetch_and_add t.inflight (-1) - 1 in
        Metrics.set t.registry t.fams.m_inflight (float_of_int down);
        (try Wire.write_frame ~max_frame:t.cfg.Config.max_frame fd response
         with Unix.Unix_error _ -> closed := true);
        (try
           observe_request t meth ~trace_id ~spans ~err
             ~bytes_in:(String.length payload)
             ~bytes_out:(String.length response) ~elapsed
         with _ ->
           (* A crash in the observability path must not kill the worker
              domain; drop the connection instead. *)
           closed := true);
        (* Draining: that response was the last on this connection. *)
        if Atomic.get t.draining then closed := true)
    | Error Wire.Closed -> closed := true
    | Error (Wire.Oversized n) ->
        (try
           Wire.write_frame fd
             (Wire.response_error ~id:Json.Null
                {
                  Wire.code = Wire.err_oversized;
                  message =
                    Printf.sprintf "frame of %d bytes exceeds limit %d" n
                      t.cfg.Config.max_frame;
                })
         with Unix.Unix_error _ -> ());
        closed := true
    | Error (Wire.Torn _) -> closed := true
    | Error Wire.Timed_out ->
        (* Idle sweep, slowloris cut, or drain/stop abort. *)
        closed := true
    | exception Unix.Unix_error _ -> closed := true
  done;
  close_connection t fd

let worker_loop t =
  let rec go () =
    match Engine.Task_channel.pop t.chan with
    | None -> ()
    | Some fd ->
        (if Atomic.get t.draining then begin
           (* Admitted before the drain flipped but never claimed by a
              worker: shed with the structured error, never silently. *)
           note_shed t ~reason:"draining";
           (try
              Unix.setsockopt_float fd Unix.SO_SNDTIMEO 0.1;
              Wire.write_frame fd
                (Wire.response_error ~id:Json.Null
                   {
                     Wire.code = Wire.err_overloaded;
                     message = "overloaded: draining";
                   })
            with Unix.Unix_error _ -> ());
           close_connection t fd
         end
         else
           try serve_connection t fd
           with e ->
             (* A worker domain must survive anything a connection
                throws at it; the flight dump preserves the events
                leading up to the crash. *)
             Obs.Flight.record t.flight "worker_crash"
               ~fields:[ ("exn", Json.String (Printexc.to_string e)) ];
             dump_flight t;
             close_connection t fd);
        go ()
  in
  go ();
  Atomic.incr t.workers_done

(* The admission gate: every shed is counted and answered with a
   structured [overloaded] error — never a silent drop.  The policy is
   reject-newest: connections already accepted keep their place; the
   arriving one is turned away, which is deterministic in arrival
   order. *)
let shed_connection t fd ~reason =
  note_shed t ~reason;
  (try
     (* Best effort, and never blocking the listener: the reply is a few
        hundred bytes (fits any socket buffer) and the send timeout
        bounds a pathological peer. *)
     Unix.setsockopt_float fd Unix.SO_SNDTIMEO 0.1;
     Wire.write_frame fd
       (Wire.response_error ~id:Json.Null
          {
            Wire.code = Wire.err_overloaded;
            message = "overloaded: " ^ reason;
          })
   with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let accept_loop t fd =
  let continue = ref true in
  while !continue do
    match Unix.accept fd with
    | client, _ ->
        if Atomic.get t.draining then
          shed_connection t client ~reason:"draining"
        else if Atomic.get t.open_conns >= t.cfg.Config.max_conns then
          shed_connection t client ~reason:"max_conns"
        else if
          Engine.Task_channel.length t.chan >= t.cfg.Config.queue_limit
        then shed_connection t client ~reason:"queue_full"
        else begin
          let n = Atomic.fetch_and_add t.open_conns 1 + 1 in
          Metrics.set t.registry t.fams.m_open (float_of_int n);
          Engine.Task_channel.push t.chan client
        end
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error _ -> continue := false
  done;
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Engine.Task_channel.close t.chan

let port t = t.bound_port

let start t =
  match t.listen_fd with
  | Some _ -> Error "already started"
  | None -> (
      match Unix.inet_addr_of_string t.cfg.Config.host with
      | exception Failure _ ->
          Error (Printf.sprintf "bad host %S" t.cfg.Config.host)
      | addr -> (
          (* A client closing mid-response turns the write into EPIPE —
             an error we catch — only if SIGPIPE cannot kill the process
             first. *)
          (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
           with Invalid_argument _ | Sys_error _ -> ());
          let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
          try
            Unix.setsockopt fd Unix.SO_REUSEADDR true;
            Unix.bind fd (Unix.ADDR_INET (addr, t.cfg.Config.port));
            Unix.listen fd t.cfg.Config.backlog;
            (match Unix.getsockname fd with
            | Unix.ADDR_INET (_, p) -> t.bound_port <- p
            | _ -> ());
            t.listen_fd <- Some fd;
            t.workers <-
              List.init t.cfg.Config.workers (fun _ ->
                  Domain.spawn (fun () -> worker_loop t));
            t.listener <- Some (Domain.spawn (fun () -> accept_loop t fd));
            logf t Obs.Log.Info
              (Printf.sprintf "listening on %s:%d (%d workers)"
                 t.cfg.Config.host t.bound_port t.cfg.Config.workers);
            Ok ()
          with Unix.Unix_error (e, _, _) ->
            (try Unix.close fd with Unix.Unix_error _ -> ());
            Error (Unix.error_message e)))

let stop t =
  request_drain t;
  wake_listener t;
  Mutex.lock t.lifecycle;
  let already = t.stopped in
  if not already then t.stopped <- true;
  Mutex.unlock t.lifecycle;
  if not already then begin
    (match t.listener with
    | Some d ->
        Domain.join d;
        t.listener <- None;
        t.listen_fd <- None
    | None -> Engine.Task_channel.close t.chan);
    (* Grace window: workers finish (or deadline-out) their in-flight
       requests and drain any queued connections, each answered with a
       structured shed error.  Past the grace, the hard stop flag cuts
       even a half-read frame at the next poll wakeup, so the joins
       below are bounded. *)
    let nworkers = List.length t.workers in
    let grace_s = float_of_int t.cfg.Config.drain_grace_ms /. 1000.0 in
    let t0 = Unix.gettimeofday () in
    while
      Atomic.get t.workers_done < nworkers
      && Unix.gettimeofday () -. t0 < grace_s
      && not (Atomic.get t.stop_requested)
    do
      ignore (Unix.select [] [] [] 0.02)
    done;
    Atomic.set t.stop_requested true;
    List.iter Domain.join t.workers;
    t.workers <- [];
    (match t.journal with Some { jr; _ } -> Journal.close jr | None -> ());
    (* Final dump: includes everything the drain-window dump missed —
       in-flight requests finishing, queued connections shed. *)
    dump_flight t;
    logf t Obs.Log.Info "stopped"
  end

(* Polling, not a condition wait: signal handlers only run at safepoints
   on this domain, and a thread parked in [Condition.wait] never reaches
   one — a SIGTERM handler calling {!request_drain} on the main thread
   would deadlock against its own wait.  Short interruptible sleeps let
   the handler run; worker-path drains (the [shutdown] method) are
   picked up within one tick. *)
let wait t =
  while not (Atomic.get t.stop_requested || Atomic.get t.draining) do
    try ignore (Unix.select [] [] [] 0.05) with Unix.Unix_error _ -> ()
  done;
  stop t
