(* The scan and emulate workloads: cold whole-chain passes through to
   the serialized report document, exactly as `proxion scan` starts
   one, over one fixed reference landscape. *)

open Common
module G = Dataset.Generate
module Az = Proxion.Analyzer
module Cfg = Proxion.Pipeline.Config
module A = Proxion.Analysis

(* The reference landscape every workload analyzes: the generator's
   default distributions at 7,000 contracts, the smallest round size at
   which the daemon's compact report (4.3 MB) exceeds the 4 MiB frame
   ceiling, so the watch workload keeps that fault in view.  Its generator seed is
   fixed rather than drawn from --seed: which beacon clones inherit a
   wrong logic (the dedup fault the scan checks expose) is a function of
   the landscape, and a run's failed share must not depend on the seed. *)
let size = ref 7_000
let landscape_seed = 42

let generate () =
  G.generate { G.default_config with total = !size; seed = landscape_seed }

(* Set-up is repeated and its median reported; the copies are
   identical, the last one is kept. *)
let setup_repeats = ref 2
let warmup_passes = 2

(* Set-up time is the CPU time of a generation (see Common). *)
let setup ~tracer =
  let times = ref [] and land_ = ref None in
  for i = 1 to !setup_repeats do
    land_ := None;
    Gc.compact ();
    let t0 = now () and c0 = cpu_self () in
    let l = generate () in
    let t1 = now () and c1 = cpu_self () in
    span tracer "generate" ~t0 ~t1 ~args:[ ("repeat", Report.Json.Int i) ];
    times := (c1 -. c0) :: !times;
    land_ := Some l
  done;
  (Option.get !land_, median !times)

(* --- traced-mode stage accounting ----------------------------------------- *)

type stages = {
  st_secs : (Engine.stage, float) Hashtbl.t;
  st_runs : (Engine.stage, int) Hashtbl.t;
  mutable st_steps : int;
  mutable st_cursor : float;
  mutable st_spans : bool;
      (** Record a span per stage execution (first traced pass only:
          the rest would add ~50k spans a pass and say nothing new). *)
}

let stages () =
  {
    st_secs = Hashtbl.create 8;
    st_runs = Hashtbl.create 8;
    st_steps = 0;
    st_cursor = 0.0;
    st_spans = true;
  }

let stage_seconds s = Hashtbl.fold (fun _ v acc -> acc +. v) s.st_secs 0.0

(* Stage events arrive at the batch barrier, so their spans are laid out
   back to back from the batch's start: durations are measured, start
   times within the batch are synthetic. *)
let subscriber tracer s = function
  | Engine.Batch_started _ -> s.st_cursor <- now ()
  | Engine.Stage_finished { stage; timing; subject; _ } ->
      let d = timing.Engine.t_elapsed in
      Hashtbl.replace s.st_secs stage
        (d +. Option.value ~default:0.0 (Hashtbl.find_opt s.st_secs stage));
      Hashtbl.replace s.st_runs stage
        (1 + Option.value ~default:0 (Hashtbl.find_opt s.st_runs stage));
      if stage = Engine.Proxy_probe then s.st_steps <- s.st_steps + timing.Engine.t_steps;
      if s.st_spans then
        span tracer ~cat:"stage" (Engine.stage_name stage) ~t0:s.st_cursor
          ~t1:(s.st_cursor +. d)
          ~args:[ ("subject", Report.Json.String subject) ];
      s.st_cursor <- s.st_cursor +. d
  | _ -> ()

(* --- one pass ----------------------------------------------------------------- *)

type pass = {
  p_contracts : int;
  p_wall : float;  (** Submission to serialized report. *)
  p_cpu : float;  (** CPU seconds of the same interval. *)
  p_run : float;  (** Inside Analyzer.run. *)
  p_serialize : float;
  p_batch_cpu : float list;  (** CPU ms of each Analyzer.run batch. *)
  p_batch_wall : float list;  (** Wall ms of the same. *)
  p_api : int;
  p_doc : string;
  p_report : A.report;
  p_dead_letters : int;
  p_minor_words : float;
  p_major : int;
  p_memo : Keccak.Memo.stats;
}

(* A cold pass as `proxion scan` starts one: fresh memo, fresh API
   counter, fresh analyzer.  The analyzer is driven one batch at a time
   so each batch's latency is timed from outside. *)
let pass ?stages:st ~tracer ~config (land_ : G.t) =
  let chain = land_.G.chain in
  Keccak.Memo.reset ();
  Chain.reset_api_call_count chain;
  let gc0 = Gc.quick_stat () in
  let t0 = now () and c0 = cpu_self () in
  let a = Az.create ~config ~chain ~source:land_.G.source_of () in
  Option.iter (fun s -> Az.subscribe a (subscriber tracer s)) st;
  Az.submit_all a;
  let cpu = ref [] and wall = ref [] and run = ref 0.0 in
  while Az.pending a > 0 do
    let b0 = now () and bc0 = cpu_self () in
    Az.run ~max_batches:1 a;
    let b1 = now () and bc1 = cpu_self () in
    span tracer ~cat:"engine" "Analyzer.run" ~t0:b0 ~t1:b1;
    run := !run +. (b1 -. b0);
    cpu := ((bc1 -. bc0) *. 1000.0) :: !cpu;
    wall := ((b1 -. b0) *. 1000.0) :: !wall
  done;
  let t1 = now () in
  let report = Az.report a in
  let doc = Report.Json.to_string (Proxion.Serialize.report_to_json report) in
  let t2 = now () and c2 = cpu_self () in
  let gc1 = Gc.quick_stat () in
  span tracer ~cat:"serialize" "serialize" ~t0:t1 ~t1:t2;
  span tracer "pass" ~t0 ~t1:t2;
  {
    p_contracts = List.length report.A.contracts;
    p_wall = t2 -. t0;
    p_cpu = c2 -. c0;
    p_run = !run;
    p_serialize = t2 -. t1;
    p_batch_cpu = !cpu;
    p_batch_wall = !wall;
    p_api = Chain.api_call_count chain;
    p_doc = doc;
    p_report = report;
    p_dead_letters = List.length (Az.skipped a);
    p_minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    p_major = gc1.Gc.major_collections - gc0.Gc.major_collections;
    p_memo = Keccak.Memo.stats ();
  }

(* --- checks ------------------------------------------------------------------- *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable correct : bool;
  mutable first_doc : string option;
}

(* Every contract of the pass is one operation; a contract that fails a
   label or bound check is a failed one.  Whole-pass properties (pass-to-pass
   byte identity, an empty dead-letter list) decide [correct]. *)
let check_pass tally ~labels ~height p =
  let failures = Check.scan_failures ~labels ~height p.p_report in
  tally.attempted <- tally.attempted + p.p_contracts + p.p_dead_letters;
  tally.failed <- tally.failed + List.length failures + p.p_dead_letters;
  if p.p_dead_letters > 0 then begin
    log "%d contracts dead-lettered" p.p_dead_letters;
    tally.correct <- false
  end;
  (match tally.first_doc with
  | None ->
      List.iter (fun (a, why) -> log "check failed: %s: %s" a why) failures;
      tally.first_doc <- Some p.p_doc
  | Some d ->
      if d <> p.p_doc then begin
        log "pass report differs from the first pass's";
        tally.correct <- false
      end)

(* --- keccak rates over the landscape ------------------------------------------ *)

(* Keccak.digest over every runtime code of the landscape, repeated for
   at least [min_s] seconds. *)
let code_mb_per_s ?(min_s = 0.5) (land_ : G.t) =
  let codes =
    List.map
      (fun m -> Chain.code_at land_.G.chain m.Chain.cm_address)
      (Chain.all_contracts land_.G.chain)
  in
  let bytes = List.fold_left (fun acc c -> acc + String.length c) 0 codes in
  let t0 = now () and rounds = ref 0 in
  while now () -. t0 < min_s do
    List.iter (fun c -> ignore (Keccak.digest c)) codes;
    incr rounds
  done;
  float_of_int (bytes * !rounds) /. 1e6 /. (now () -. t0)

(* Keccak.selector over mining-style prototypes: one fixed name with a
   seeded counter suffix, as `proxion mine` searches. *)
let selectors_per_s ?(min_s = 0.5) ~seed () =
  let rng = Dataset.Prng.create seed in
  let base = Dataset.Prng.int rng 1_000_000 in
  let t0 = now () and n = ref 0 in
  while now () -. t0 < min_s do
    for i = 0 to 999 do
      ignore (Keccak.selector (Printf.sprintf "transfer_%d(address,uint256)" (base + !n + i)))
    done;
    n := !n + 1000
  done;
  float_of_int !n /. (now () -. t0)

(* Fill the analysis layers from a set of traced passes. *)
let analysis_layers layers ~land_ ~seed (st : stages) ~(first : pass) (passes : pass list) =
  let n = float_of_int (List.length passes) in
  let per_pass f = sum (List.map f passes) /. n in
  let contracts = per_pass (fun p -> float_of_int p.p_contracts) in
  let stage_s = stage_seconds st /. n in
  let set = Layers.set layers in
  set "pass.wall_s" (per_pass (fun p -> p.p_wall));
  set "engine.run_s" (per_pass (fun p -> p.p_run));
  set "pass.residual_s" (per_pass (fun p -> p.p_wall -. p.p_run -. p.p_serialize));
  set "engine.residual_s" (per_pass (fun p -> p.p_run) -. stage_s);
  set "keccak.code_mb_per_s" (code_mb_per_s land_);
  set "keccak.selectors_per_s" (selectors_per_s ~seed ());
  set "keccak.memo_hits" (float_of_int first.p_memo.Keccak.Memo.hits);
  set "keccak.memo_misses" (float_of_int first.p_memo.Keccak.Memo.misses);
  List.iter
    (fun stage ->
      let name = String.map (function '-' -> '_' | c -> c) (Engine.stage_name stage) in
      set ("stage." ^ name ^ "_s")
        (Option.value ~default:0.0 (Hashtbl.find_opt st.st_secs stage) /. n);
      set ("stage." ^ name ^ "_runs")
        (float_of_int (Option.value ~default:0 (Hashtbl.find_opt st.st_runs stage))
        /. n))
    Engine.all_stages;
  let probe_s =
    Option.value ~default:0.0 (Hashtbl.find_opt st.st_secs Engine.Proxy_probe)
  in
  set "evm.steps_per_contract" (float_of_int st.st_steps /. n /. contracts);
  set "evm.steps_per_s" (float_of_int st.st_steps /. probe_s);
  set "chain.get_storage_at_calls" (float_of_int first.p_api);
  let slot =
    List.filter_map
      (fun (r : A.contract_report) ->
        match r.A.r_resolution with
        | Some res when Check.is_slot_proxy r ->
            Some res.Proxion.Logic_resolve.api_calls
        | _ -> None)
      first.p_report.A.contracts
  in
  set "logic_resolve.calls_per_slot_proxy"
    (float_of_int (List.fold_left ( + ) 0 slot)
    /. float_of_int (max 1 (List.length slot)));
  let hits = first.p_report.A.stats.A.s_dedup_hits in
  set "dedup.hits" (float_of_int hits);
  set "dedup.hit_ratio" (float_of_int hits /. contracts);
  set "serialize.report_s" (per_pass (fun p -> p.p_serialize));
  set "serialize.report_bytes" (float_of_int (String.length first.p_doc));
  set "gc.minor_words_per_contract" (per_pass (fun p -> p.p_minor_words) /. contracts);
  set "gc.major_collections" (per_pass (fun p -> float_of_int p.p_major))

(* --- the workload ------------------------------------------------------------ *)

let config_of = function
  | `Scan -> Cfg.default
  | `Emulate -> Cfg.with_dedup false Cfg.default

let run ~mode ~seed ~seconds ~tracer =
  let since = host_ticks () in
  let config = config_of mode in
  let land_, setup_s = setup ~tracer in
  let labels = land_.G.labels in
  let height = Chain.height land_.G.chain in
  let tally = { attempted = 0; failed = 0; correct = true; first_doc = None } in
  let st = Option.map (fun _ -> stages ()) tracer in
  for _ = 1 to warmup_passes do
    check_pass tally ~labels ~height (pass ?stages:None ~tracer ~config land_)
  done;
  (* Whole passes until the budget is spent; every pass is the same
     round of operations, so the failed share does not depend on how
     many fit. *)
  let passes = ref [] and first = ref None and spent = ref 0.0 and kernel = ref [] in
  while !spent < seconds do
    kernel := kernel_ms () :: !kernel;
    let p = pass ?stages:st ~tracer ~config land_ in
    check_pass tally ~labels ~height p;
    spent := !spent +. p.p_wall;
    (* Only the first timed pass is kept whole (for the layer figures);
       the rest keep their timings, so holding them costs no memory. *)
    if !first = None then first := Some p;
    Option.iter (fun s -> s.st_spans <- false) st;
    passes := { p with p_doc = ""; p_report = { p.p_report with A.contracts = [] } } :: !passes
  done;
  let passes = List.rev !passes and first = Option.get !first in
  let batch_cpu = List.concat_map (fun p -> p.p_batch_cpu) passes in
  let contracts = float_of_int first.p_contracts in
  (* Contracts over the median pass's CPU time: what other tenants of the
     host take shows in neither. *)
  let contracts_per_cpu_s = contracts /. median (List.map (fun p -> p.p_cpu) passes) in
  let scale = speed_scale !kernel in
  let metrics =
    match st with
    | None ->
        [
          metric "setup_s" "s" (setup_s *. scale);
          metric "peak_rss_mb" "MiB" (peak_rss_mb ());
          metric "contracts_per_ref_s" "1/s" (contracts_per_cpu_s /. scale);
          metric "api_calls_per_contract" "calls" (float_of_int first.p_api /. contracts);
          metric "update_ref_p50_ms" "ms" (percentile batch_cpu 0.5 *. scale);
          metric "update_ref_p90_ms" "ms" (percentile batch_cpu 0.9 *. scale);
          metric "bytes_per_contract" "bytes"
            (float_of_int (String.length first.p_doc) /. contracts);
        ]
    | Some st ->
        let layers = Layers.create () in
        Layers.set layers "dataset.generate_s" setup_s;
        Layers.set layers "traced.contracts_per_ref_s" (contracts_per_cpu_s /. scale);
        Layers.set layers "traced.update_ref_p50_ms" (percentile batch_cpu 0.5 *. scale);
        Layers.set layers "traced.update_cpu_p50_ms" (percentile batch_cpu 0.5);
        Layers.set layers "host.kernel_ms" (median !kernel);
        Layers.set layers "traced.update_wall_p50_ms"
          (percentile (List.concat_map (fun p -> p.p_batch_wall) passes) 0.5);
        analysis_layers layers ~land_ ~seed st ~first passes;
        Serve_layers.in_process layers ~generate ~land_ ~analysis:config ~seed ~tracer;
        Layers.set layers "host.steal_share" (steal_share ~since);
        Layers.to_metrics layers
  in
  {
    o_correct = tally.correct;
    o_attempted = tally.attempted;
    o_failed = tally.failed;
    o_metrics = metrics;
  }
