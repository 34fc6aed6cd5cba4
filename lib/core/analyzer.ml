module Address = Evm.Address
module Config = Analysis.Config
module Json = Report.Json

(* Detection results cached per code hash.  A cached slot-based proxy needs
   only a storage read for the new address; everything else transfers
   as-is. *)
type cached_detection =
  | C_verdict of Proxy_detect.verdict
  | C_slot_proxy of U256.t

(* Telemetry wiring: the shared registry, the metric families the
   analyzer records per item, and the optional span collector.  Workers
   record straight into the registry: every per-item series is
   integer-valued (counts, steps, fuel), so its sums are exact in any
   order and the snapshot is the same at every worker count. *)
type telemetry = {
  tm_registry : Obs.Metrics.t;
  tm_trace : Obs.Trace.t option;
  tm_rpc_attempts : Obs.Metrics.family;
  tm_api_methods : Obs.Metrics.family;
  tm_endpoint_attempts : Obs.Metrics.family;
  tm_endpoint_disagreements : Obs.Metrics.family;
  tm_endpoint_hedges : Obs.Metrics.family;
  tm_item_steps : Obs.Metrics.family;
  tm_fuel_used : Obs.Metrics.family;
  tm_evm_frames : Obs.Metrics.family;
  tm_dedup_hits : Obs.Metrics.family;
  (* Pre-resolved handles for the hottest labeled series, keyed by label
     values and filled lazily, one table per worker so a lookup takes no
     lock; workers that resolve the same labels share one series. *)
  tm_attempt_handles : (string * string, Obs.Metrics.handle) Hashtbl.t array;
  tm_endpoint_handles : (string * string, Obs.Metrics.handle) Hashtbl.t array;
  tm_method_handles : (string, Obs.Metrics.handle) Hashtbl.t array;
  tm_item_steps_h : Obs.Metrics.handle;
  tm_fuel_used_h : Obs.Metrics.handle;
  tm_evm_frames_h : Obs.Metrics.handle;
  tm_dedup_hits_h : Obs.Metrics.handle;
}

(* The handle for [key] in a worker's [tbl], resolved through [labels]
   on first use. *)
let cached_handle tm tbl key labels fam =
  match Hashtbl.find_opt tbl key with
  | Some h -> h
  | None ->
      let h = Obs.Metrics.handle ~labels:(labels key) tm.tm_registry fam in
      Hashtbl.replace tbl key h;
      h

let attempt_labels (meth, outcome) = [ ("method", meth); ("outcome", outcome) ]

let endpoint_labels (endpoint, outcome) =
  [ ("endpoint", endpoint); ("outcome", outcome) ]

let method_labels meth = [ ("method", meth) ]

(* Outside a request, 1 item in [trace_sample] records its RPC and EVM
   detail in a trace. *)
let trace_sample = 16

(* Per-item observation state: the sampling decision — a pure function
   of the subject address, so worker count and scheduling never change
   which items carry trace detail — and the item's call-frame count. *)
type item_obs = { io_sampled : bool; io_frames : int ref }

type t = {
  engine : (Address.t, Analysis.entry) Engine.t;
  chain : Chain.t;
  source : Analysis.source_lookup;
  cfg : Config.t;
  resilience : Resilience.Transport.config;
  views : (Chain.t * Evm.Host.t) option array;
      (* Per-worker chain view + head host, created lazily on the worker's
         first item and reused for the rest of the run — building an
         overlay per item costs more than the item.  Safe to reuse because
         probe effects are fully reverted; per-item API/method accounting
         samples deltas against the view's running counters.  Cleared at
         the start of every [run], so each run sees the chain's current
         head and a mutated chain never leaks a stale view. *)
  lock : Mutex.t;
  detection_cache : (string, cached_detection) Hashtbl.t;
  pair_cache :
    ( string * string,
      Func_collision.collision list * Storage_collision.collision list )
    Hashtbl.t;
  mutable telemetry : telemetry option;
  req_ctx : Obs.Trace.ctx option Atomic.t;
      (* Request-scoped trace context (daemon [query]/[advance]): while
         set, every item is treated as sampled and its RPC/EVM spans
         carry the context's trace/span ids.  Only one request-scoped
         analysis runs at a time (the daemon serializes them under its
         advance lock), so a plain atomic slot suffices. *)
  transport_obs : (Resilience.Transport.event -> unit) option Atomic.t;
      (* External observer of raw transport events (the daemon's flight
         recorder); called from worker domains, so it must be
         thread-safe. *)
}

(* Per-item execution environment: the worker's private
   {!Chain.worker_view} (own API-call counter, copy-on-write host) and the
   item's step counter, which the step budget is checked against. *)
type env = {
  e_chain : Chain.t;
  e_host : Evm.Host.t;
  e_steps : int ref;
  e_transport : Resilience.Transport.t;
      (* One logical connection per item, salted by the subject address:
         fault injection and jitter depend only on (plan seed, subject,
         per-connection attempt index), never on scheduling. *)
  e_fuel : Evm.Interp.fuel option;
      (* Live watchdog allowance shared by every probe emulation of the
         item; sized by the transport step budget.  The post-stage budget
         check still runs — fuel is the in-flight enforcement that stops
         a looping bytecode from ever reaching that check. *)
  e_tracer : Evm.Interp.tracer;
      (* Telemetry observer composed under the probe's own tracer:
         counts call frames, and records frame spans for sampled
         items.  [Interp.no_tracer] when telemetry is off. *)
}

let config t = t.cfg
let engine t = t.engine

(* The analyzer's one lock, over what workers share: the dedup caches and
   the chain's archive-call counter.  Chains grouped by bytecode hash (the
   engine key, [Chain.code_hash], which also keys both caches) guarantee
   all accesses to any given cache key happen in input order, and this
   lock makes the mutations themselves safe. *)
let locked t f = Mutex.protect t.lock f

(* ------------------------------------------------------------------ *)
(* Stage bodies                                                        *)
(* ------------------------------------------------------------------ *)

let side_for t env addr =
  match t.source addr with
  | Some ast -> Storage_collision.Source ast
  | None -> Storage_collision.Bytecode (Chain.code_at env.e_chain addr)

let func_side_for t env addr =
  match t.source addr with
  | Some ast -> Func_collision.Source ast
  | None -> Func_collision.Bytecode (Chain.code_at env.e_chain addr)

let method_for t proxy logic =
  match (t.source proxy, t.source logic) with
  | Some _, Some _ -> Analysis.Source_source
  | None, None -> Analysis.Bytecode_bytecode
  | _ -> Analysis.Mixed

let api_reader env () = Chain.api_call_count env.e_chain
let steps_reader env () = !(env.e_steps)
let retries_reader env () = Resilience.Transport.retries env.e_transport

(* Every stage is bracketed by the engine timers and followed by a check
   of the item's steps against the step budget — exceeding it raises
   [Transport.Budget_exhausted], which dead-letters the item as
   [Budget_exhausted] (recoverable by requeue with a larger budget). *)
let timed ctx env ~stage ~subject f =
  Engine.timed_stage ctx ~stage ~subject ~api_calls:(api_reader env)
    ~steps:(steps_reader env) ~retries:(retries_reader env) (fun () ->
      let v = f () in
      Resilience.Transport.check_step_budget env.e_transport
        ~steps:!(env.e_steps);
      v)

let fresh_probe t env addr code_hash =
  let d =
    if t.cfg.Config.diamond_extension then
      Diamond_probe.detect ?fuel:env.e_fuel env.e_chain addr
    else
      Proxy_detect.detect ?fuel:env.e_fuel ~tracer:env.e_tracer
        ~host:env.e_host addr
  in
  env.e_steps := !(env.e_steps) + d.Proxy_detect.steps;
  (if t.cfg.Config.dedup then
     match d.Proxy_detect.verdict with
     | Proxy_detect.Proxy { source = Proxy_detect.Storage_slot slot; _ } ->
         locked t (fun () ->
             Hashtbl.replace t.detection_cache code_hash (C_slot_proxy slot))
     | Proxy_detect.Proxy { source = Proxy_detect.Computed; _ }
       when t.cfg.Config.diamond_extension ->
         (* Extension verdicts depend on per-address history, not just
            code: unsafe to share across clones. *)
         ()
     | v ->
         locked t (fun () ->
             Hashtbl.replace t.detection_cache code_hash (C_verdict v)));
  d

let cached_detection env addr cached =
  let verdict =
    match cached with
    | C_verdict v -> v
    | C_slot_proxy slot ->
        let value = env.e_host.Evm.Host.get_storage addr slot in
        Proxy_detect.Proxy
          {
            target = Address.of_u256 value;
            source = Proxy_detect.Storage_slot slot;
          }
  in
  { Proxy_detect.address = addr; verdict; probe_selector = ""; steps = 0 }

let analyze_pair t env ctx ~proxy_addr ~logic_addr =
  let subject =
    Printf.sprintf "%s->%s" (Address.to_hex proxy_addr)
      (Address.to_hex logic_addr)
  in
  let key =
    ( Chain.code_hash env.e_chain proxy_addr,
      Chain.code_hash env.e_chain logic_addr )
  in
  let cached =
    if t.cfg.Config.dedup then
      locked t (fun () -> Hashtbl.find_opt t.pair_cache key)
    else None
  in
  let func_collisions, honeypot =
    timed ctx env ~stage:Engine.Func_collision ~subject (fun () ->
        let fc =
          match cached with
          | Some (fc, _) -> fc
          | None ->
              Func_collision.detect
                ~proxy:(func_side_for t env proxy_addr)
                ~logic:(func_side_for t env logic_addr)
        in
        let honeypot =
          fc <> []
          && (Honeypot.classify
                ~proxy:(func_side_for t env proxy_addr)
                ~logic:(func_side_for t env logic_addr))
               .Honeypot.is_honeypot
        in
        (fc, honeypot))
  in
  let storage_collisions =
    timed ctx env ~stage:Engine.Storage_collision ~subject (fun () ->
        let sc =
          match cached with
          | Some (_, sc) -> sc
          | None ->
              let sc =
                Storage_collision.detect
                  ~proxy:(side_for t env proxy_addr)
                  ~logic:(side_for t env logic_addr)
              in
              if t.cfg.Config.dedup then
                locked t (fun () ->
                    Hashtbl.replace t.pair_cache key (func_collisions, sc));
              sc
        in
        if t.cfg.Config.verify_storage && sc <> [] then
          Storage_collision.verify ~chain:env.e_chain ~proxy_address:proxy_addr
            ~logic_address:logic_addr sc
        else sc)
  in
  {
    Analysis.p_proxy = proxy_addr;
    p_logic = logic_addr;
    p_method = method_for t proxy_addr logic_addr;
    p_func_collisions = func_collisions;
    p_storage_collisions = storage_collisions;
    p_honeypot = honeypot;
  }

let analyze_contract t env ctx addr =
  let subject = Address.to_hex addr in
  let stage s f = timed ctx env ~stage:s ~subject f in
  let code = Chain.code_at env.e_chain addr in
  let code_hash = Chain.code_hash env.e_chain addr in
  (* Stage 1: bytecode-hash dedup lookup. *)
  let hit =
    stage Engine.Dedup_check (fun () ->
        if not t.cfg.Config.dedup then None
        else
          Option.map
            (cached_detection env addr)
            (locked t (fun () ->
                 Hashtbl.find_opt t.detection_cache code_hash)))
  in
  (* Stage 2: emulation probe (fresh bytecodes only). *)
  let detection, dedup_hit =
    match hit with
    | Some d -> (d, true)
    | None ->
        ( stage Engine.Proxy_probe (fun () -> fresh_probe t env addr code_hash),
          false )
  in
  match detection.Proxy_detect.verdict with
  | Proxy_detect.Proxy { source = target_source; target } ->
      (* Stage 3: Algorithm 1 logic resolution. *)
      let resolution =
        stage Engine.Logic_resolve (fun () ->
            Logic_resolve.resolve ~transport:env.e_transport ~probed:target
              env.e_chain addr target_source)
      in
      (* Stage 4: design-standard classification. *)
      let standard =
        stage Engine.Classify (fun () ->
            Standard_classify.classify ~code target_source)
      in
      let logic_addresses =
        let all =
          resolution.Logic_resolve.historical
          @ Option.to_list resolution.Logic_resolve.current
        in
        List.sort_uniq Address.compare all
        |> List.filter (fun a -> Chain.code_at env.e_chain a <> "")
      in
      (* Stages 5-6: per-pair collision checks. *)
      let pairs =
        List.map
          (fun logic_addr -> analyze_pair t env ctx ~proxy_addr:addr ~logic_addr)
          logic_addresses
      in
      {
        Analysis.r_address = addr;
        r_code_hash = code_hash;
        r_detection = detection;
        r_standard = Some standard;
        r_resolution = Some resolution;
        r_pairs = pairs;
        r_dedup_hit = dedup_hit;
      }
  | _ ->
      {
        Analysis.r_address = addr;
        r_code_hash = code_hash;
        r_detection = detection;
        r_standard = None;
        r_resolution = None;
        r_pairs = [];
        r_dedup_hit = dedup_hit;
      }

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

(* Args joining a span to the active request trace, when one is set: the
   request's trace id, and its span as the parent. *)
let req_trace_args t =
  match Atomic.get t.req_ctx with
  | None -> []
  | Some c ->
      [
        ("trace_id", Json.String (Obs.Trace.id_to_hex c.Obs.Trace.trace_id));
        ( "parent_span_id",
          Json.String (Obs.Trace.id_to_hex c.Obs.Trace.span_id) );
      ]

let trace_now tr = Obs.Clock.now (Obs.Trace.clock tr)

(* One logical archive connection per item.  The salt derives from the
   subject address alone, so the fault/jitter stream a contract sees is a
   pure function of (plan seed, address, attempt index) — independent of
   batch composition, worker count and scheduling order.  Transport
   events replay through [Engine.emit_from], which buffers them for the
   input-order merge. *)
let make_transport t ctx addr chain obs =
  let subject = Address.to_hex addr in
  let worker = Engine.worker_id ctx in
  let on_event ev =
    (match Atomic.get t.transport_obs with Some f -> f ev | None -> ());
    match ev with
    | Resilience.Transport.Retry { attempt; reason; delay } ->
        Engine.emit_from ctx
          (Engine.Retry_attempted { subject; attempt; reason; delay; worker })
    | Resilience.Transport.Circuit_opened { endpoint; failures } ->
        Engine.emit_from ctx
          (Engine.Circuit_opened { endpoint; subject; failures; worker })
    | Resilience.Transport.Circuit_closed { endpoint } ->
        Engine.emit_from ctx (Engine.Circuit_closed { endpoint; subject; worker })
    | Resilience.Transport.Quorum_disagreement { meth = _; endpoint } -> (
        match t.telemetry with
        | Some tm ->
            Obs.Metrics.inc
              ~labels:[ ("endpoint", endpoint) ]
              tm.tm_registry tm.tm_endpoint_disagreements
        | None -> ())
    | Resilience.Transport.Hedged { meth = _; primary = _; secondary } -> (
        match t.telemetry with
        | Some tm ->
            Obs.Metrics.inc
              ~labels:[ ("endpoint", secondary) ]
              tm.tm_registry tm.tm_endpoint_hedges
        | None -> ())
    | Resilience.Transport.Dispatched { endpoint; meth; fault; latency } -> (
        match (t.telemetry, obs) with
        | Some tm, Some io -> (
            let outcome = Option.value ~default:"ok" fault in
            Obs.Metrics.hinc
              (cached_handle tm tm.tm_attempt_handles.(worker) (meth, outcome)
                 attempt_labels tm.tm_rpc_attempts);
            Obs.Metrics.hinc
              (cached_handle tm tm.tm_endpoint_handles.(worker)
                 (endpoint, outcome) endpoint_labels tm.tm_endpoint_attempts);
            match tm.tm_trace with
            | Some tr when io.io_sampled ->
                (* The archive node is in process, so a dispatch is a
                   point on the worker's lane; its simulated latency is
                   virtual time and rides as an arg. *)
                Obs.Trace.complete tr ~tid:(worker + 1) ~cat:"rpc" ~name:meth
                  ~ts:(trace_now tr) ~dur:0.0
                  ~args:
                    ([
                       ("subject", Json.String subject);
                       ("outcome", Json.String outcome);
                       ("endpoint", Json.String endpoint);
                       ("latency_s", Json.Float latency);
                     ]
                    @ req_trace_args t)
            | _ -> ())
        | _ -> ())
  in
  Resilience.Transport.create ~config:t.resilience ~salt:(Hashtbl.hash subject)
    ~on_event ~chain ()

(* The sampling decision is a pure function of the address, never of
   scheduling: the same items carry trace detail at every worker count. *)
let item_obs_for t addr =
  match t.telemetry with
  | None -> None
  | Some _ ->
      Some
        {
          io_sampled =
            (Atomic.get t.req_ctx <> None
            || Hashtbl.hash (Address.to_hex addr) mod trace_sample = 0);
          io_frames = ref 0;
        }

let item_tracer t ctx obs =
  match (t.telemetry, obs) with
  | Some tm, Some io ->
      let stack = ref [] in
      {
        Evm.Interp.no_tracer with
        Evm.Interp.on_call =
          (fun ev ->
            incr io.io_frames;
            match tm.tm_trace with
            | Some tr when io.io_sampled ->
                stack := (ev.Evm.Interp.kind, trace_now tr) :: !stack
            | _ -> ());
        Evm.Interp.on_call_result =
          (fun _ev _status ->
            match (tm.tm_trace, !stack) with
            | Some tr, (kind, ts) :: rest when io.io_sampled ->
                stack := rest;
                Obs.Trace.complete tr
                  ~tid:(Engine.worker_id ctx + 1)
                  ~cat:"evm"
                  ~name:(Evm.Interp.call_kind_to_string kind)
                  ~ts
                  ~dur:(trace_now tr -. ts)
                  ~args:(req_trace_args t)
            | _ -> ());
      }
  | _ -> Evm.Interp.no_tracer

(* Record a completed item's observations.  Deterministic families
   (steps, fuel, frames, dedup hits, per-method counts) are recorded only
   for completed items — as the report counts only them, so a
   dead-lettered item contributes nothing and a later requeue converges
   to the fault-free figures.  RPC-attempt counts are recorded live by
   the transport hook, whatever the outcome. *)
let record_item_obs t env ~worker ~meth0 ~dedup_hit obs =
  match (t.telemetry, obs) with
  | Some tm, Some io ->
      Obs.Metrics.hobserve tm.tm_item_steps_h (float_of_int !(env.e_steps));
      if dedup_hit then Obs.Metrics.hinc tm.tm_dedup_hits_h;
      if !(io.io_frames) > 0 then
        Obs.Metrics.hinc ~by:(float_of_int !(io.io_frames)) tm.tm_evm_frames_h;
      (match (env.e_fuel, t.resilience.Resilience.Transport.step_budget) with
      | Some f, Some budget ->
          Obs.Metrics.hobserve tm.tm_fuel_used_h
            (float_of_int (budget - Evm.Interp.fuel_remaining f))
      | _ -> ());
      List.iter
        (fun (meth, n) ->
          let base = Option.value ~default:0 (List.assoc_opt meth meth0) in
          if n > base then
            Obs.Metrics.hinc
              ~by:(float_of_int (n - base))
              (cached_handle tm tm.tm_method_handles.(worker) meth
                 method_labels tm.tm_api_methods))
        (Chain.method_call_counts env.e_chain)
  | _ -> ()

(* Transport failures carry their own classification (class, stage,
   attempts); anything else propagates and the engine dead-letters it as
   [Permanent] on its own. *)
let skip_of_exn ctx env e =
  let stage = Engine.current_stage ctx in
  let attempts = max 1 (Resilience.Transport.last_attempts env.e_transport) in
  match e with
  | Resilience.Transport.Rpc_error err ->
      let message = "rpc error: " ^ Chain_rpc.error_to_string err in
      if Chain_rpc.is_transient err then
        Engine.transient ?stage ~attempts message
      else Engine.permanent ?stage ~attempts message
  | Resilience.Transport.Budget_exhausted { scope; budget; spent } ->
      Engine.budget_exhausted ?stage ~attempts
        (Printf.sprintf "budget exhausted: %d %s spent (budget %d)" spent scope
           budget)
  | Evm.Interp.Fuel_exhausted { budget } ->
      (* The live watchdog fired mid-emulation: same class, message and
         stage attribution as the post-stage evm-steps check would have
         produced, just without letting the loop run to completion. *)
      Engine.budget_exhausted ?stage ~attempts
        (Printf.sprintf "watchdog: evm-steps fuel exhausted (budget %d)" budget)
  | e -> raise e

(* The calling worker's chain view and head host, built on its first
   item of the run. *)
let view_for t wid =
  match t.views.(wid) with
  | Some vh -> vh
  | None ->
      let v = Chain.worker_view t.chain in
      let vh = (v, Chain.host_at_head v) in
      t.views.(wid) <- Some vh;
      vh

(* The item's archive calls, added to the chain's counter whatever the
   outcome, so it reads the same at every worker count.  Only a completed
   item's entry carries them: a dead-lettered item adds nothing to the
   report, and a later requeue brings it to exactly the fault-free
   figures. *)
let merge_api_calls t env ~api0 =
  let calls = Chain.api_call_count env.e_chain - api0 in
  locked t (fun () -> Chain.add_api_calls t.chain calls);
  calls

(* Every item runs on its worker's view, so stage deltas, the item's
   archive calls and the Algorithm 1 accounting serialized into the
   report are the same at any worker count. *)
let process_item t ctx addr =
  let obs = item_obs_for t addr in
  let worker = Engine.worker_id ctx in
  let view, host = view_for t worker in
  let api0 = Chain.api_call_count view in
  let meth0 = if obs = None then [] else Chain.method_call_counts view in
  let env =
    {
      e_chain = view;
      e_host = host;
      e_steps = ref 0;
      e_transport = make_transport t ctx addr view obs;
      e_fuel =
        Option.map Evm.Interp.fuel
          t.resilience.Resilience.Transport.step_budget;
      e_tracer = item_tracer t ctx obs;
    }
  in
  match analyze_contract t env ctx addr with
  | report ->
      let e_api_calls = merge_api_calls t env ~api0 in
      record_item_obs t env ~worker ~meth0
        ~dedup_hit:report.Analysis.r_dedup_hit obs;
      Ok { Analysis.e_report = report; e_api_calls }
  | exception e ->
      ignore (merge_api_calls t env ~api0);
      Error (skip_of_exn ctx env e)

(* The one constructor: [create] starts it empty, [restore] from a
   decoded checkpoint. *)
let make ~config ~resilience ?crash_plan ?state ~chain ~source () =
  let self = ref None in
  let process ctx addr =
    match !self with
    | None -> Error (Engine.permanent "analyzer not initialized")
    | Some t -> process_item t ctx addr
  in
  let engine =
    Engine.create ~batch_size:config.Config.batch_size
      ~domains:config.Config.domains ~key:(Chain.code_hash chain) ?crash_plan
      ?state ~subject:Address.to_hex ~process ()
  in
  let t =
    {
      engine;
      chain;
      source;
      cfg = config;
      resilience;
      views = Array.make (max 1 config.Config.domains) None;
      lock = Mutex.create ();
      detection_cache = Hashtbl.create 256;
      pair_cache = Hashtbl.create 256;
      telemetry = None;
      req_ctx = Atomic.make None;
      transport_obs = Atomic.make None;
    }
  in
  self := Some t;
  t

let create ?(config = Config.default)
    ?(resilience = Resilience.Transport.default_config) ?crash_plan ~chain
    ~source () =
  make ~config ~resilience ?crash_plan ~chain ~source ()

(* ------------------------------------------------------------------ *)
(* Scheduling and results                                              *)
(* ------------------------------------------------------------------ *)

let submit t addresses = Engine.submit t.engine addresses

let submit_all t =
  submit t (List.map (fun m -> m.Chain.cm_address) (Chain.all_contracts t.chain))

(* ------------------------------------------------------------------ *)
(* Telemetry                                                           *)
(* ------------------------------------------------------------------ *)

let step_b = [ 10.; 100.; 1000.; 1e4; 1e5; 1e6; 1e7 ]

(* The engine's spans, stamped with the start its timing read from the
   collector's clock: the run and its batches on track 0, each item and
   its stages on the lane of the worker that ran them (track worker + 1,
   beside that worker's RPC and EVM detail).  Events arrive in input
   order, so the sequence of engine spans is the same at any worker
   count. *)
let attach_spans t tr =
  Engine.set_clock t.engine (Obs.Trace.clock tr);
  let span ?(tid = 0) ~cat ~name ~start ~elapsed args =
    Obs.Trace.complete tr ~tid ~cat ~name ~ts:start ~dur:elapsed
      ~args:(args @ req_trace_args t)
  in
  let stage_span ~stage ~subject ~worker ~start ~elapsed args =
    span ~tid:(worker + 1) ~cat:"stage" ~name:(Engine.stage_name stage) ~start
      ~elapsed
      (("subject", Json.String subject) :: args)
  in
  Engine.subscribe t.engine (function
    | Engine.Run_finished { processed; skipped; start; elapsed } ->
        span ~cat:"run" ~name:"run" ~start ~elapsed
          [ ("processed", Json.Int processed); ("skipped", Json.Int skipped) ]
    | Engine.Batch_finished { index; size; start; elapsed } ->
        span ~cat:"batch"
          ~name:(Printf.sprintf "batch-%d" index)
          ~start ~elapsed
          [ ("size", Json.Int size) ]
    | Engine.Item_finished { subject; start; elapsed; worker } ->
        span ~tid:(worker + 1) ~cat:"item" ~name:subject ~start ~elapsed []
    | Engine.Stage_finished { stage; subject; start; timing; worker } ->
        stage_span ~stage ~subject ~worker ~start
          ~elapsed:timing.Engine.t_elapsed
          [
            ("api_calls", Json.Int timing.Engine.t_api_calls);
            ("steps", Json.Int timing.Engine.t_steps);
            ("retries", Json.Int timing.Engine.t_retries);
          ]
    | Engine.Stage_errored { stage; subject; message; start; elapsed; worker }
      ->
        stage_span ~stage ~subject ~worker ~start ~elapsed
          [ ("error", Json.String message) ]
    | _ -> ())

let instrument ?trace ?log registry t =
  Engine.Telemetry.instrument registry t.engine;
  Option.iter (attach_spans t) trace;
  Option.iter (fun lg -> Engine.Telemetry.attach_log lg t.engine) log;
  let rpc_attempts =
    Obs.Metrics.counter registry
      ~help:"RPC round-trip attempts per method and outcome"
      "proxion_rpc_attempts_total"
  and api_methods =
    Obs.Metrics.counter registry
      ~help:"RPC requests served by the node per method"
      "proxion_api_method_calls_total"
  and item_steps =
    Obs.Metrics.histogram registry ~buckets:step_b
      ~help:"EVM steps interpreted per analyzed contract" "proxion_item_steps"
  and fuel_used =
    Obs.Metrics.histogram registry ~buckets:step_b
      ~help:"Watchdog fuel consumed per contract (step-budget runs)"
      "proxion_item_fuel_used"
  and evm_frames =
    Obs.Metrics.counter registry
      ~help:"EVM call frames observed by probe emulations"
      "proxion_evm_frames_total"
  and dedup_hits =
    Obs.Metrics.counter registry ~help:"Bytecode-dedup cache hits"
      "proxion_dedup_hits_total"
  and endpoint_attempts =
    Obs.Metrics.counter registry
      ~help:"RPC round-trip attempts per chain endpoint and outcome"
      "proxion_chain_endpoint_attempts_total"
  and endpoint_disagreements =
    Obs.Metrics.counter registry
      ~help:"Quorum votes lost per chain endpoint (each quarantines it)"
      "proxion_chain_endpoint_disagreements_total"
  and endpoint_hedges =
    Obs.Metrics.counter registry
      ~help:"Hedged requests raced per secondary chain endpoint"
      "proxion_chain_endpoint_hedges_total"
  in
  let per_worker f = Array.init (Array.length t.views) (fun _ -> f ()) in
  let tm =
    {
      tm_registry = registry;
      tm_trace = trace;
      tm_rpc_attempts = rpc_attempts;
      tm_api_methods = api_methods;
      tm_endpoint_attempts = endpoint_attempts;
      tm_endpoint_disagreements = endpoint_disagreements;
      tm_endpoint_hedges = endpoint_hedges;
      tm_item_steps = item_steps;
      tm_fuel_used = fuel_used;
      tm_evm_frames = evm_frames;
      tm_dedup_hits = dedup_hits;
      tm_attempt_handles = per_worker (fun () -> Hashtbl.create 16);
      tm_endpoint_handles = per_worker (fun () -> Hashtbl.create 16);
      tm_method_handles = per_worker (fun () -> Hashtbl.create 8);
      tm_item_steps_h = Obs.Metrics.handle registry item_steps;
      tm_fuel_used_h = Obs.Metrics.handle registry fuel_used;
      tm_evm_frames_h = Obs.Metrics.handle registry evm_frames;
      tm_dedup_hits_h = Obs.Metrics.handle registry dedup_hits;
    }
  in
  (* The Keccak selector memo lives in Domain.DLS — per-domain tables
     whose hit/miss split depends on how items landed on workers, so the
     coordinator-side reading is inherently volatile. *)
  let memo_hits =
    Obs.Metrics.gauge registry ~volatile:true
      ~help:"Keccak memo hits (coordinator domain)" "proxion_keccak_memo_hits"
  and memo_misses =
    Obs.Metrics.gauge registry ~volatile:true
      ~help:"Keccak memo misses (coordinator domain)"
      "proxion_keccak_memo_misses"
  in
  Engine.subscribe t.engine (function
    | Engine.Run_finished _ ->
        let s = Keccak.Memo.stats () in
        Obs.Metrics.set registry memo_hits (float_of_int s.Keccak.Memo.hits);
        Obs.Metrics.set registry memo_misses
          (float_of_int s.Keccak.Memo.misses)
    | _ -> ());
  t.telemetry <- Some tm

let set_request_ctx t ctx = Atomic.set t.req_ctx ctx
let set_transport_observer t obs = Atomic.set t.transport_obs obs

let run ?max_batches t =
  Array.fill t.views 0 (Array.length t.views) None;
  Engine.run ?max_batches t.engine
let pending t = Engine.pending t.engine
let subscribe t f = Engine.subscribe t.engine f
let stage_totals_table t = Engine.stage_totals_table t.engine
let skipped t = Engine.skipped t.engine
let skipped_pairs t = Engine.skipped_pairs t.engine
let requeue ?classes t = Engine.requeue ?classes t.engine

let unique_codes t = Hashtbl.length t.detection_cache

let report t =
  Analysis.report_of_entries ~unique_codes:(unique_codes t)
    (Engine.results t.engine)

let drain_results t = Engine.drain_results t.engine

let invalidate_code_hash t code_hash =
  locked t (fun () -> Hashtbl.remove t.detection_cache code_hash)

(* ------------------------------------------------------------------ *)
(* Checkpointing                                                       *)
(* ------------------------------------------------------------------ *)

let hex_string b = Json.String (Hexutil.to_hex b)

let cached_detection_to_json code_hash = function
  | C_slot_proxy slot ->
      Json.Obj
        [
          ("code_hash", hex_string code_hash);
          ("slot", Json.String (U256.to_hex slot));
        ]
  | C_verdict v ->
      Json.Obj
        [
          ("code_hash", hex_string code_hash);
          ("verdict", Serialize.verdict_to_json v);
        ]

let pair_cache_entry_to_json (proxy_hash, logic_hash) (fc, sc) =
  Json.Obj
    [
      ("proxy_hash", hex_string proxy_hash);
      ("logic_hash", hex_string logic_hash);
      ("func", Json.List (List.map Serialize.func_collision_to_json fc));
      ("storage", Json.List (List.map Serialize.storage_collision_to_json sc));
    ]

(* A dead letter's item is its subject's address, so the subject alone
   stands for both. *)
let skip_record_to_json (r : Address.t Engine.skip_record) =
  Json.Obj
    [
      ("subject", Json.String r.Engine.sk_subject);
      ("message", Json.String r.Engine.sk_message);
      ( "stage",
        match r.Engine.sk_stage with
        | Some s -> Json.String (Engine.stage_name s)
        | None -> Json.Null );
      ("attempts", Json.Int r.Engine.sk_attempts);
      ("class", Json.String (Engine.skip_class_name r.Engine.sk_class));
    ]

let sorted_entries tbl =
  (* Hash tables have no stable iteration order; sort by key so the
     checkpoint bytes are deterministic. *)
  List.sort (fun (k1, _) (k2, _) -> compare k1 k2)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let checkpoint ?landscape t =
  let st = Engine.state t.engine in
  let json =
    Json.Obj
      [
        ("verify_storage", Json.Bool t.cfg.Config.verify_storage);
        ("dedup", Json.Bool t.cfg.Config.dedup);
        ("diamond_extension", Json.Bool t.cfg.Config.diamond_extension);
        ("batch_size", Json.Int t.cfg.Config.batch_size);
        ("batches_done", Json.Int st.Engine.st_batches);
        ( "queue",
          Json.List
            (List.map
               (fun a -> Json.String (Address.to_hex a))
               st.Engine.st_queue) );
        ( "results",
          Json.List (List.map Serialize.entry_to_json st.Engine.st_results) );
        ( "skipped",
          Json.List (List.map skip_record_to_json st.Engine.st_skipped) );
        ( "detection_cache",
          Json.List
            (List.map
               (fun (k, v) -> cached_detection_to_json k v)
               (sorted_entries t.detection_cache)) );
        ( "pair_cache",
          Json.List
            (List.map
               (fun (k, v) -> pair_cache_entry_to_json k v)
               (sorted_entries t.pair_cache)) );
      ]
  in
  match landscape with
  | None -> json
  | Some landscape -> Report.Schema.stamp ~landscape json

let ( let* ) = Result.bind

let detection_cache_entry_of_json json =
  let* code_hash = Json.field "code_hash" Serialize.hex_of_json json in
  match Json.opt "slot" Serialize.word_of_json json with
  | Ok (Some slot) -> Ok (code_hash, C_slot_proxy slot)
  | Ok None ->
      let* v = Json.field "verdict" Serialize.verdict_of_json json in
      Ok (code_hash, C_verdict v)
  | Error e -> Error e

let pair_cache_entry_of_json json =
  let* proxy_hash = Json.field "proxy_hash" Serialize.hex_of_json json in
  let* logic_hash = Json.field "logic_hash" Serialize.hex_of_json json in
  let* fc = Json.list "func" Serialize.func_collision_of_json json in
  let* sc = Json.list "storage" Serialize.storage_collision_of_json json in
  Ok ((proxy_hash, logic_hash), (fc, sc))

let named what of_name = function
  | Json.String s -> (
      match of_name s with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "unknown %s %S" what s))
  | _ -> Error (Printf.sprintf "%s: expected a string" what)

let skip_record_of_json json =
  let* sk_item = Json.field "subject" Serialize.address_of_json json in
  let* sk_message = Json.string "message" json in
  let* sk_stage = Json.opt "stage" (named "stage" Engine.stage_of_name) json in
  let* sk_attempts = Json.int "attempts" json in
  let* sk_class =
    Json.field "class" (named "skip class" Engine.skip_class_of_name) json
  in
  Ok
    {
      Engine.sk_item;
      sk_subject = Address.to_hex sk_item;
      sk_message;
      sk_stage;
      sk_attempts;
      sk_class;
    }

let restore ?landscape ?batch_size ?(domains = 1)
    ?(resilience = Resilience.Transport.default_config) ?crash_plan ~chain
    ~source json =
  let* json =
    match landscape with
    | None -> Ok json
    | Some landscape -> Report.Schema.check ~landscape json
  in
  let* verify_storage = Json.bool "verify_storage" json in
  let* dedup = Json.bool "dedup" json in
  let* diamond_extension = Json.bool "diamond_extension" json in
  let* saved_batch_size = Json.int "batch_size" json in
  let* config =
    Result.map_error Report.Validate.to_string
      (Config.validate
         {
           Config.verify_storage;
           dedup;
           diamond_extension;
           batch_size = Option.value batch_size ~default:saved_batch_size;
           domains;
         })
  in
  let* st_batches = Json.int "batches_done" json in
  let* st_queue = Json.list "queue" Serialize.address_of_json json in
  let* st_results = Json.list "results" Serialize.entry_of_json json in
  let* st_skipped = Json.list "skipped" skip_record_of_json json in
  let* detections =
    Json.list "detection_cache" detection_cache_entry_of_json json
  in
  let* pairs = Json.list "pair_cache" pair_cache_entry_of_json json in
  let t =
    make ~config ~resilience ?crash_plan
      ~state:{ Engine.st_queue; st_results; st_skipped; st_batches }
      ~chain ~source ()
  in
  List.iter (fun (k, v) -> Hashtbl.replace t.detection_cache k v) detections;
  List.iter (fun (k, v) -> Hashtbl.replace t.pair_cache k v) pairs;
  Ok t
