(* The proxion command-line tool: scan synthetic landscapes, serve the
   analysis as a resident daemon, query it over the wire, benchmark it,
   analyze raw bytecode, or mine selector collisions. *)

open Cmdliner
module Chain_spec = Cli_spec.Chain_spec
module Faults_spec = Cli_spec.Faults_spec
module Telemetry_spec = Cli_spec.Telemetry_spec
module Trace_out = Cli_spec.Trace_out
module Journal_spec = Cli_spec.Journal_spec
module Analysis_spec = Cli_spec.Analysis_spec

let print_and_exit s =
  print_string s;
  if s <> "" && s.[String.length s - 1] <> '\n' then print_newline ()

(* --- analyze: single-bytecode analysis --------------------------------- *)

let analyze_bytecode hex disasm_flag =
  match Hexutil.of_hex_opt hex with
  | None ->
      prerr_endline "error: invalid hex bytecode";
      1
  | Some code ->
      if disasm_flag then begin
        print_endline "-- disassembly --";
        print_endline (Evm.Disasm.format_listing (Evm.Disasm.disassemble code))
      end;
      let d = Proxion.Proxy_detect.detect_code code in
      (match d.Proxion.Proxy_detect.verdict with
      | Proxion.Proxy_detect.Not_proxy_no_delegatecall ->
          print_endline "verdict: NOT a proxy (no DELEGATECALL opcode)"
      | Proxion.Proxy_detect.Not_proxy_no_forward ->
          print_endline
            "verdict: NOT a proxy (DELEGATECALL present but the probe call \
             data was not forwarded)"
      | Proxion.Proxy_detect.Emulation_error msg ->
          Printf.printf "verdict: emulation error (%s)\n" msg
      | Proxion.Proxy_detect.Proxy { target; source } ->
          Printf.printf "verdict: PROXY, current logic target %s\n"
            (Evm.Address.to_hex target);
          (match source with
          | Proxion.Proxy_detect.Hardcoded ->
              print_endline "logic address: hard-coded in bytecode"
          | Proxion.Proxy_detect.Storage_slot slot ->
              Printf.printf "logic address: storage slot %s\n" (U256.to_hex slot)
          | Proxion.Proxy_detect.Computed ->
              print_endline "logic address: dynamically computed");
          Printf.printf "standard: %s\n"
            (Proxion.Standard_classify.to_string
               (Proxion.Standard_classify.classify ~code source)));
      let naive = Proxion.Selector_extract.naive_push4 code in
      let dispatch = Proxion.Selector_extract.dispatcher_selectors code in
      Printf.printf "PUSH4 constants (%d): %s\n" (List.length naive)
        (String.concat " " (List.map Hexutil.to_hex naive));
      Printf.printf "dispatcher selectors (%d): %s\n" (List.length dispatch)
        (String.concat " " (List.map Hexutil.to_hex dispatch));
      0

let analyze_cmd =
  let hex =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"BYTECODE" ~doc:"Runtime bytecode as hex (0x-prefixed).")
  in
  let disasm_flag =
    Arg.(value & flag & info [ "d"; "disasm" ] ~doc:"Print the disassembly.")
  in
  let doc = "Analyze raw EVM bytecode: proxy detection and selector recovery." in
  Cmd.v (Cmd.info "analyze" ~doc) Term.(const analyze_bytecode $ hex $ disasm_flag)

(* --- scan: the batch landscape run (section 7) --------------------------- *)

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let landscape_config total seed =
  Chain_spec.config { Chain_spec.total; seed }

(* Progress reporting goes through the structured log sink
   (Engine.Telemetry.attach_log): per-batch summary lines with retry and
   breaker counts folded in, per-item detail at warn/debug — on stderr,
   leaving stdout to the figures.  [--log-json] switches the same stream
   to JSONL. *)

exception Journal_write_error of string

(* The bounded-RSS path: drain the dataset stream batch-by-batch, analyze
   each batch against the chain as of its boundary, fold commutative
   aggregates, and evict every non-pinned subject before generating the
   next batch — so peak RSS tracks the batch size and the pinned logic
   pools, not --total.  Output is byte-identical at any --domains (the
   engine merge is input-ordered and the aggregates commutative); the peak
   RSS self-report goes to stderr so stdout stays diffable. *)
let run_stream_scan chain faults telemetry stream_batch analysis =
  let gen_config = Chain_spec.config chain in
  let stream = Dataset.Generate.open_stream gen_config in
  let chain_ = Dataset.Generate.stream_chain stream in
  let source = Dataset.Generate.stream_source_of stream in
  Chain.reset_api_call_count chain_;
  match Telemetry_spec.trace telemetry with
  | Error e ->
      prerr_endline ("error: " ^ e);
      1
  | Ok trace ->
  let registry = Obs.Metrics.create () in
  let log = Telemetry_spec.log telemetry in
  let resilience = Faults_spec.resilience faults in
  let analyzer =
    Proxion.Analyzer.create
      ~config:(Analysis_spec.config analysis)
      ~resilience ~chain:chain_ ~source ()
  in
  Proxion.Analyzer.instrument ?trace ?log registry analyzer;
  let agg = Experiments.Stream_scan.create () in
  let rec loop () =
    match Dataset.Generate.next_batch stream ~batch:stream_batch with
    | None -> ()
    | Some specs ->
        Proxion.Analyzer.submit analyzer
          (Array.to_list
             (Array.map
                (fun sp ->
                  sp.Dataset.Generate.sp_label.Dataset.Generate.l_address)
                specs));
        Proxion.Analyzer.run analyzer;
        let reports =
          List.map
            (fun e -> e.Proxion.Analysis.e_report)
            (Proxion.Analyzer.drain_results analyzer)
        in
        Experiments.Stream_scan.absorb agg specs reports;
        let evicted = ref 0 in
        Array.iter
          (fun sp ->
            if not sp.Dataset.Generate.sp_pinned then begin
              Dataset.Generate.evict stream sp;
              incr evicted
            end)
          specs;
        Experiments.Stream_scan.note_evicted agg !evicted;
        loop ()
  in
  loop ();
  Chain.compact chain_;
  Experiments.Stream_scan.note_skipped agg
    (List.length (Proxion.Analyzer.skipped analyzer));
  let outputs_failed =
    not (Telemetry_spec.write_outputs telemetry ~registry ~trace)
  in
  print_string (Experiments.Stream_scan.summary agg);
  (match Experiments.Stream_scan.peak_rss_kb () with
  | Some kb ->
      Printf.eprintf "stream-scan: %d contracts, peak RSS %d KiB\n%!"
        (Dataset.Generate.stream_emitted stream)
        kb
  | None -> ());
  if outputs_failed then 1 else 0

let run_scan chain faults telemetry journal_path journal_fsync findings
    analysis max_batches retry_skipped stream =
  match
    ( analysis.Analysis_spec.batch_size,
      analysis.Analysis_spec.domains,
      Faults_spec.validate faults )
  with
  | Some b, _, _ when b <= 0 ->
      prerr_endline "error: --batch-size must be positive";
      1
  | _, Some d, _ when d <= 0 ->
      prerr_endline "error: --domains must be positive";
      1
  | _, _, Error e ->
      prerr_endline ("error: " ^ e);
      1
  | _ when (match stream with Some s -> s <= 0 | None -> false) ->
      prerr_endline "error: --stream must be positive";
      1
  | _ when stream <> None && (journal_path <> None || max_batches <> None) ->
      prerr_endline
        "error: --stream is not checkpointable; drop --journal/--max-batches";
      1
  | _ when stream <> None && (findings > 0 || retry_skipped) ->
      prerr_endline
        "error: --stream folds results incrementally; --findings and \
         --retry-skipped need the materialized scan";
      1
  | _ when stream <> None ->
      run_stream_scan chain faults telemetry (Option.get stream) analysis
  | _ ->
  let land_ = Chain_spec.generate chain in
  let chain_ = land_.Dataset.Generate.chain in
  let source = land_.Dataset.Generate.source_of in
  Chain.reset_api_call_count chain_;
  (* Telemetry: the registry always exists (recording into it is cheap
     and instrument wires the engine recorders); the trace collector and
     log sink only when requested. *)
  let registry = Obs.Metrics.create () in
  let journal_commits =
    Obs.Metrics.counter registry
      ~help:"Checkpoint frames committed to the durable journal"
      "proxion_journal_commits_total"
  in
  match Telemetry_spec.trace telemetry with
  | Error e ->
      prerr_endline ("error: " ^ e);
      1
  | Ok trace ->
  let log = Telemetry_spec.log telemetry in
  (* Like --domains, the fault plan and the watchdog budget are execution
     parameters: any combination of knobs produces the same figures,
     faults only exercise the retry path and the watchdog only decides
     how fast a pathological item dies. *)
  let resilience = Faults_spec.resilience faults in
  let journal =
    match journal_path with
    | None -> Ok None
    | Some path -> (
        match Resilience.Journal.open_journal ~fsync:journal_fsync path with
        | Ok (j, recovery) -> Ok (Some (j, recovery))
        | Error e -> Error e)
  in
  match journal with
  | Error e ->
      prerr_endline ("error: " ^ e);
      1
  | Ok journal ->
  (* A journal binds to the landscape it was written for: checkpoints
     carry its fingerprint, and a resume refuses another landscape's. *)
  let landscape =
    Option.map (fun _ -> Dataset.Generate.fingerprint land_) journal_path
  in
  let restore_from what text =
    match
      Result.bind (Report.Json.parse text)
        (Proxion.Analyzer.restore ?landscape
           ?batch_size:analysis.Analysis_spec.batch_size
           ?domains:analysis.Analysis_spec.domains ~resilience ~chain:chain_
           ~source)
    with
    | Ok t -> Ok t
    | Error e -> Error (Printf.sprintf "cannot resume from %s: %s" what e)
  in
  let fresh () =
    let t =
      Proxion.Analyzer.create
        ~config:(Analysis_spec.config analysis)
        ~resilience ~chain:chain_ ~source ()
    in
    Proxion.Analyzer.submit_all t;
    Ok t
  in
  let analyzer =
    match journal with
    | Some (j, recovery) -> (
        match recovery.Resilience.Journal.rec_state with
        | Some text ->
            let committed = recovery.Resilience.Journal.rec_committed in
            let dropped = recovery.Resilience.Journal.rec_dropped_bytes in
            Obs.Metrics.inc registry
              (Obs.Metrics.counter registry
                 ~help:"Journal recoveries performed at startup"
                 "proxion_journal_recoveries_total");
            Obs.Metrics.set registry
              (Obs.Metrics.gauge registry
                 ~help:"Committed frames found by the last journal recovery"
                 "proxion_journal_recovered_frames")
              (float_of_int committed);
            Obs.Metrics.set registry
              (Obs.Metrics.gauge registry
                 ~help:"Torn bytes truncated by the last journal recovery"
                 "proxion_journal_torn_bytes_dropped")
              (float_of_int dropped);
            (match log with
            | Some l ->
                Obs.Log.log l ~component:"journal"
                  ~fields:
                    [
                      ("path", Report.Json.String (Resilience.Journal.path j));
                      ("committed_frames", Report.Json.Int committed);
                      ("torn_bytes_dropped", Report.Json.Int dropped);
                    ]
                  Obs.Log.Info "recovered committed journal state"
            | None ->
                Printf.eprintf
                  "journal: recovered %s (%d committed frame%s, %d torn \
                   byte%s dropped)\n\
                   %!"
                  (Resilience.Journal.path j) committed
                  (if committed = 1 then "" else "s")
                  dropped
                  (if dropped = 1 then "" else "s"));
            restore_from (Resilience.Journal.path j) text
        | None -> fresh ())
    | None -> fresh ()
  in
  match analyzer with
  | Error e ->
      Option.iter (fun (j, _) -> Resilience.Journal.close j) journal;
      prerr_endline ("error: " ^ e);
      1
  | Ok analyzer -> (
      Proxion.Analyzer.instrument ?trace ?log registry analyzer;
      (* One journal record + commit per batch barrier: a kill at any
         instant re-executes at most the batch in flight. *)
      Option.iter
        (fun (j, _) ->
          Proxion.Analyzer.subscribe analyzer (function
            | Engine.Batch_finished _ -> (
                let text =
                  Report.Json.to_string ~pretty:false
                    (Proxion.Analyzer.checkpoint ?landscape analyzer)
                in
                match Resilience.Journal.checkpoint j text with
                | Ok () ->
                    Obs.Metrics.inc registry journal_commits
                | Error e -> raise (Journal_write_error e))
            | _ -> ()))
        journal;
      match
        Proxion.Analyzer.run ?max_batches analyzer;
        if retry_skipped then
          let n =
            Proxion.Analyzer.requeue
              ~classes:
                [
                  Engine.Transient;
                  Engine.Budget_exhausted;
                  Engine.Worker_crashed;
                  Engine.Permanent;
                ]
              analyzer
          in
          if n > 0 then begin
            Printf.eprintf
              "retry-skipped: requeued %d dead-letter contract%s\n%!" n
              (if n = 1 then "" else "s");
            Proxion.Analyzer.run analyzer
          end
      with
      | exception Journal_write_error e ->
          Option.iter (fun (j, _) -> Resilience.Journal.close j) journal;
          prerr_endline ("error: journal write failed: " ^ e);
          1
      | () ->
          Option.iter (fun (j, _) -> Resilience.Journal.close j) journal;
          let outputs_failed =
            not (Telemetry_spec.write_outputs telemetry ~registry ~trace)
          in
          if outputs_failed then 1
          else if Proxion.Analyzer.pending analyzer > 0 then begin
            Printf.eprintf "stopped with %d contracts pending%s\n%!"
              (Proxion.Analyzer.pending analyzer)
              (match journal_path with
              | Some p -> Printf.sprintf "; resume with --journal %s" p
              | None -> " (pass --journal to make this resumable)");
            0
          end
          else begin
            if telemetry.Telemetry_spec.progress then
              prerr_string (Proxion.Analyzer.stage_totals_table analyzer);
            print_string
              (Experiments.Landscape.render ~findings
                 (Experiments.Landscape.of_parts land_
                    (Proxion.Analyzer.report analyzer)));
            0
          end)

let scan_cmd =
  let findings_arg =
    Arg.(
      value & opt int 0
      & info [ "findings" ] ~docv:"N"
          ~doc:"Also print the top $(docv) security findings.")
  in
  let max_batches_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-batches" ] ~docv:"N"
          ~doc:
            "Stop after $(docv) batches, leaving the rest queued (pair \
             with --journal to resume later).")
  in
  let retry_skipped_arg =
    Arg.(
      value & flag
      & info [ "retry-skipped" ]
          ~doc:
            "After the run, requeue every dead-letter contract (all fault \
             classes) and run once more.")
  in
  let journal_arg =
    Journal_spec.term
      ~doc:
        "Keep a durable CRC-framed checkpoint journal at $(docv), \
         committed at every batch boundary.  If $(docv) already holds \
         committed state (e.g. after a kill -9), the run recovers it — \
         truncating any torn tail — and resumes; at most one batch is \
         re-executed.  Use the same --total and --seed so the landscape \
         regenerates identically."
  in
  let stream_arg =
    Arg.(
      value
      & opt ~vopt:(Some 4096) (some int) None
      & info [ "stream" ] ~docv:"N"
          ~doc:
            "Bounded-RSS mode: generate, analyze and evict the landscape \
             in batches of $(docv) contracts (default 4096) instead of \
             materializing it, so peak memory tracks the batch size — not \
             --total.  Prints an incremental summary; byte-identical at \
             any --domains.")
  in
  let doc =
    "Generate a synthetic landscape, run the full pipeline through the \
     staged engine, and print the section-7 figures and tables."
  in
  Cmd.v (Cmd.info "scan" ~doc)
    Term.(
      const run_scan $ Chain_spec.term () $ Faults_spec.term
      $ Telemetry_spec.term $ journal_arg $ Journal_spec.fsync_term
      $ findings_arg $ Analysis_spec.term $ max_batches_arg
      $ retry_skipped_arg $ stream_arg)

(* --- serve: the resident analysis daemon --------------------------------- *)

let run_serve chain faults host port workers backlog max_conns queue_limit
    idle_timeout_ms request_deadline_ms drain_grace_ms journal_path
    journal_fsync advance_seed deployments upgrades reorg_depth analysis
    log_json log_level slow_ms trace_out flight_capacity flight_dump
    trace_seed =
  match Faults_spec.validate faults with
  | Error e ->
      prerr_endline ("error: " ^ e);
      1
  | Ok faults ->
  let config =
    Serve.Config.(
      default |> with_host host |> with_port port |> with_workers workers
      |> with_backlog backlog |> with_max_conns max_conns
      |> with_queue_limit queue_limit
      |> with_idle_timeout_ms idle_timeout_ms
      |> with_request_deadline_ms request_deadline_ms
      |> with_drain_grace_ms drain_grace_ms
      |> with_journal journal_path
      |> with_journal_fsync journal_fsync
      |> with_advance_seed advance_seed
      |> with_advance_spec { Serve.Advance.deployments; upgrades; reorg_depth }
      |> with_analysis (Analysis_spec.config analysis)
      |> with_resilience (Faults_spec.resilience faults)
      |> with_slow_ms slow_ms
      |> with_flight_capacity flight_capacity
      |> with_flight_dump flight_dump
      |> with_trace_seed trace_seed)
  in
  let registry = Obs.Metrics.create () in
  let log = Obs.Log.create ~level:log_level ~json:log_json stderr in
  match Trace_out.open_ trace_out with
  | Error e ->
      prerr_endline ("error: " ^ e);
      1
  | Ok trace ->
  let land_ = Chain_spec.generate chain in
  match Serve.Daemon.create ~config ~registry ~log ?trace land_ with
  | Error e ->
      prerr_endline ("error: " ^ e);
      1
  | Ok d -> (
      match Serve.Daemon.start d with
      | Error e ->
          prerr_endline ("error: " ^ e);
          1
      | Ok () ->
          Printf.printf "proxion daemon listening on %s:%d (%s, %d contracts)\n%!"
            host (Serve.Daemon.port d)
            (if Serve.Daemon.recovered d then "recovered warm from journal"
             else "analyzed cold")
            (Serve.Store.size (Serve.Daemon.store d));
          (* First signal: graceful drain — finish in-flight requests,
             flush the journal, exit.  Second signal: hard stop — cut
             in-flight reads at the next poll wakeup. *)
          let signals = Atomic.make 0 in
          let stop_signal _ =
            if Atomic.fetch_and_add signals 1 = 0 then
              Serve.Daemon.request_drain d
            else Serve.Daemon.request_stop d
          in
          Sys.set_signal Sys.sigint (Sys.Signal_handle stop_signal);
          Sys.set_signal Sys.sigterm (Sys.Signal_handle stop_signal);
          Serve.Daemon.wait d;
          match (trace, trace_out) with
          | Some tr, Some path ->
              if Trace_out.close path tr then begin
                Printf.eprintf "trace: %d events -> %s\n%!" (Obs.Trace.count tr)
                  path;
                0
              end
              else 1
          | _ -> 0)

let host_arg =
  Arg.(
    value & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"HOST" ~doc:"Bind/connect address.")

let serve_cmd =
  let doc =
    "Run the resident analysis daemon: analyze a landscape once (or \
     recover it warm from --journal), hold the results hot, and answer \
     wire-protocol queries (see doc/API.md) until shutdown."
  in
  let port_arg =
    Arg.(
      value & opt int 0
      & info [ "port" ] ~docv:"PORT"
          ~doc:"Listen port (default 0 = pick an ephemeral port).")
  in
  let workers_arg =
    Arg.(
      value & opt int 2
      & info [ "workers" ] ~docv:"N" ~doc:"Connection-serving worker domains.")
  in
  let backlog_arg =
    Arg.(value & opt int 16 & info [ "backlog" ] ~docv:"N" ~doc:"Listen backlog.")
  in
  let max_conns_arg =
    Arg.(
      value & opt int 64
      & info [ "max-conns" ] ~docv:"N"
          ~doc:
            "Open-connection cap; excess connections are shed at accept \
             with a structured overloaded error.")
  in
  let queue_limit_arg =
    Arg.(
      value & opt int 32
      & info [ "queue-limit" ] ~docv:"N"
          ~doc:
            "Accepted-but-unclaimed connection cap (reject-newest \
             load-shedding).")
  in
  let idle_timeout_arg =
    Arg.(
      value & opt int 10_000
      & info [ "idle-timeout-ms" ] ~docv:"MS"
          ~doc:
            "Close a connection whose next request frame does not complete \
             within $(docv) (slowloris defense).")
  in
  let request_deadline_arg =
    Arg.(
      value & opt int 5_000
      & info [ "request-deadline-ms" ] ~docv:"MS"
          ~doc:
            "Per-request handler budget; exceeding it answers a structured \
             deadline_exceeded error.")
  in
  let drain_grace_arg =
    Arg.(
      value & opt int 5_000
      & info [ "drain-grace-ms" ] ~docv:"MS"
          ~doc:
            "How long a drain (SIGTERM or shutdown RPC) waits for in-flight \
             requests before cutting connections.")
  in
  let journal_arg =
    Journal_spec.term
      ~doc:
        "Snapshot every increment to a durable journal at $(docv); a \
         killed daemon restarted with the same landscape flags recovers \
         warm without re-analyzing."
  in
  let advance_seed_arg =
    Arg.(
      value & opt int 7
      & info [ "advance-seed" ] ~docv:"SEED"
          ~doc:"Seed of the scripted chain advances (watch mode).")
  in
  let deployments_arg =
    Arg.(
      value & opt int 3
      & info [ "advance-deployments" ] ~docv:"N"
          ~doc:"New contracts deployed per advance.")
  in
  let upgrades_arg =
    Arg.(
      value & opt int 2
      & info [ "advance-upgrades" ] ~docv:"N"
          ~doc:"Proxy upgrade events per advance.")
  in
  let reorg_depth_arg =
    Arg.(
      value & opt int 0
      & info [ "reorg-depth" ] ~docv:"K"
          ~doc:
            "Maximum blocks a seeded chain reorganization may roll back \
             before an advance (default 0 = no reorgs).  Orphaned \
             subjects are retracted from the store and the divergent \
             suffix re-analyzed; the store stays byte-identical to a \
             cold re-run over the post-reorg chain.")
  in
  let log_json_arg =
    Arg.(
      value & flag
      & info [ "log-json" ] ~doc:"JSONL structured access log on stderr.")
  in
  let log_level_arg =
    Arg.(
      value
      & opt
          (enum
             [
               ("debug", Obs.Log.Debug);
               ("info", Obs.Log.Info);
               ("warn", Obs.Log.Warn);
               ("warning", Obs.Log.Warn);
               ("error", Obs.Log.Error);
             ])
          Obs.Log.Info
      & info [ "log-level" ] ~docv:"LEVEL" ~doc:"Minimum access-log level.")
  in
  let slow_ms_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "slow-ms" ] ~docv:"MS"
          ~doc:
            "Log requests slower than $(docv) at warn level with their \
             full span tree inline.")
  in
  let flight_capacity_arg =
    Arg.(
      value & opt int 256
      & info [ "flight-capacity" ] ~docv:"N"
          ~doc:"Flight-recorder ring size (most recent $(docv) events).")
  in
  let flight_dump_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "flight-dump" ] ~docv:"FILE"
          ~doc:
            "Dump the flight-recorder ring to $(docv) on drain, stop and \
             worker crash.")
  in
  let trace_seed_arg =
    Arg.(
      value & opt int 11
      & info [ "trace-seed" ] ~docv:"SEED"
          ~doc:
            "Seed of the daemon's trace-id generator for requests that \
             carry no client trace context.")
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run_serve
      $ Chain_spec.term ~default_total:2_000 ()
      $ Faults_spec.term $ host_arg $ port_arg $ workers_arg $ backlog_arg
      $ max_conns_arg $ queue_limit_arg $ idle_timeout_arg
      $ request_deadline_arg $ drain_grace_arg $ journal_arg
      $ Journal_spec.fsync_term $ advance_seed_arg $ deployments_arg
      $ upgrades_arg $ reorg_depth_arg $ Analysis_spec.term
      $ log_json_arg $ log_level_arg $ slow_ms_arg $ Trace_out.term
      $ flight_capacity_arg $ flight_dump_arg $ trace_seed_arg)

(* --- query: the thin wire client ----------------------------------------- *)

let parse_param kv =
  match String.index_opt kv '=' with
  | None -> Error (Printf.sprintf "%S: expected KEY=VALUE" kv)
  | Some i ->
      let key = String.sub kv 0 i in
      let v = String.sub kv (i + 1) (String.length kv - i - 1) in
      let json =
        match int_of_string_opt v with
        | Some n -> Report.Json.Int n
        | None -> (
            match v with
            | "true" -> Report.Json.Bool true
            | "false" -> Report.Json.Bool false
            | _ -> Report.Json.String v)
      in
      Ok (key, json)

let run_query host port timeout_ms trace_seed meth raw_params =
  let rec parse acc = function
    | [] -> Ok (List.rev acc)
    | kv :: rest -> (
        match parse_param kv with
        | Ok p -> parse (p :: acc) rest
        | Error e -> Error e)
  in
  let timeout_ms = if timeout_ms <= 0 then None else Some timeout_ms in
  (* Only attach a trace context when asked: an untraced request is
     byte-identical to previous releases, keeping golden transcripts
     stable. *)
  let trace =
    Option.map
      (fun seed ->
        let ctx = Obs.Trace.next_ctx (Obs.Trace.gen ~seed) in
        {
          Serve.Wire.tc_trace_id = Obs.Trace.id_to_hex ctx.Obs.Trace.trace_id;
          tc_span_id = Obs.Trace.id_to_hex ctx.Obs.Trace.span_id;
        })
      trace_seed
  in
  match parse [] raw_params with
  | Error e ->
      prerr_endline ("error: " ^ e);
      1
  | Ok params -> (
      match Serve.Client.connect ~host ?timeout_ms ~port () with
      | Error e ->
          Printf.eprintf "error: cannot connect to %s:%d: %s\n%!" host port e;
          1
      | Ok c ->
          (match trace with
          | Some tc ->
              Printf.eprintf "trace_id=%s\n%!" tc.Serve.Wire.tc_trace_id
          | None -> ());
          let code =
            match Serve.Client.call ?trace c ~meth ~params with
            | Ok result ->
                print_endline (Report.Json.to_string ~pretty:true result);
                0
            | Error e ->
                prerr_endline ("error: " ^ e);
                1
          in
          Serve.Client.close c;
          code)

let port_arg =
  Arg.(
    required
    & opt (some int) None
    & info [ "port" ] ~docv:"PORT" ~doc:"Daemon port (printed by serve).")

let query_cmd =
  let doc =
    "Send one request to a running daemon and print the JSON result: \
     $(b,proxion query --port 7000 is_proxy address=0xabc...)."
  in
  let meth_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"METHOD"
          ~doc:
            "Wire method: get_status, is_proxy, logic_history, collisions, \
             list_findings, report, metrics, advance, query, flight, \
             reorgs, shutdown.")
  in
  let params_arg =
    Arg.(
      value & pos_right 0 string []
      & info [] ~docv:"KEY=VALUE" ~doc:"Request parameters.")
  in
  let timeout_arg =
    Arg.(
      value & opt int 10_000
      & info [ "timeout-ms" ] ~docv:"MS"
          ~doc:
            "Connect/send/receive timeout so the query cannot hang on a \
             wedged daemon (0 disables).")
  in
  let trace_seed_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "trace-seed" ] ~docv:"SEED"
          ~doc:
            "Attach a deterministic trace context derived from $(docv); \
             the trace_id is printed to stderr so it can be joined \
             against the daemon's trace file.")
  in
  Cmd.v (Cmd.info "query" ~doc)
    Term.(
      const run_query $ host_arg $ port_arg $ timeout_arg $ trace_seed_arg
      $ meth_arg $ params_arg)

(* --- top: the live ops console ------------------------------------------- *)

let run_top host port timeout_ms interval_ms iterations no_clear =
  let timeout_ms = if timeout_ms <= 0 then None else Some timeout_ms in
  let poll () =
    match Serve.Client.connect ~host ?timeout_ms ~port () with
    | Error e ->
        Error (Printf.sprintf "cannot connect to %s:%d: %s" host port e)
    | Ok c ->
        let r =
          match
            Serve.Client.call c ~meth:"metrics"
              ~params:[ ("format", Report.Json.String "json") ]
          with
          | Error e -> Error e
          | Ok metrics -> (
              match Serve.Ops.of_metrics_json metrics with
              | Error e -> Error e
              | Ok view ->
                  (* Health and flight are best-effort garnish: a daemon
                     mid-drain still renders from metrics alone. *)
                  let view =
                    match Serve.Client.call c ~meth:"health" ~params:[] with
                    | Ok h -> Serve.Ops.with_health view h
                    | Error _ -> view
                  in
                  let view =
                    match
                      Serve.Client.call c ~meth:"flight"
                        ~params:[ ("limit", Report.Json.Int 64) ]
                    with
                    | Ok f -> Serve.Ops.with_flight view f
                    | Error _ -> view
                  in
                  Ok view)
        in
        Serve.Client.close c;
        r
  in
  let prev = ref None in
  let code = ref 0 in
  let i = ref 0 in
  let continue = ref true in
  while !continue && (iterations <= 0 || !i < iterations) do
    (match poll () with
    | Error e ->
        prerr_endline ("error: " ^ e);
        code := 1;
        continue := false
    | Ok view ->
        let dt =
          if !i = 0 then 0.0 else float_of_int interval_ms /. 1000.0
        in
        if not no_clear then print_string "\027[2J\027[H";
        print_string (Serve.Ops.render ?prev:!prev ~dt view);
        flush stdout;
        prev := Some view);
    incr i;
    if !continue && (iterations <= 0 || !i < iterations) then
      Unix.sleepf (float_of_int interval_ms /. 1000.0)
  done;
  !code

let top_cmd =
  let doc =
    "Live ops console for a running daemon: polls metrics/health/flight \
     and renders request rates, per-method latency quantiles with their \
     max-latency trace exemplars, shed/drain state, endpoint health and \
     the flight-recorder tail."
  in
  let interval_arg =
    Arg.(
      value & opt int 1_000
      & info [ "interval-ms" ] ~docv:"MS" ~doc:"Poll interval.")
  in
  let iterations_arg =
    Arg.(
      value & opt int 0
      & info [ "iterations" ] ~docv:"N"
          ~doc:"Stop after $(docv) polls (default 0 = until interrupted).")
  in
  let no_clear_arg =
    Arg.(
      value & flag
      & info [ "no-clear" ]
          ~doc:"Append frames instead of clearing the screen (for logs).")
  in
  let timeout_arg =
    Arg.(
      value & opt int 5_000
      & info [ "timeout-ms" ] ~docv:"MS"
          ~doc:"Per-poll connect/send/receive timeout (0 disables).")
  in
  Cmd.v (Cmd.info "top" ~doc)
    Term.(
      const run_top $ host_arg $ port_arg $ timeout_arg $ interval_arg
      $ iterations_arg $ no_clear_arg)

(* --- bench: load-generate against a self-hosted daemon ------------------- *)

let run_bench chain host clients requests workers attackers hostile_seed
    target out =
  if clients <= 0 || requests <= 0 then begin
    prerr_endline "error: --clients and --requests must be positive";
    1
  end
  else if attackers < 0 then begin
    prerr_endline "error: --attackers must be non-negative";
    1
  end
  else
    (* The landscape regenerates from the chain flags even when targeting
       an existing daemon: the query mix needs its addresses, and the
       daemon must have been started with the same flags. *)
    let land_ = Chain_spec.generate chain in
    let addresses =
      List.map
        (fun l -> l.Dataset.Generate.l_address)
        land_.Dataset.Generate.labels
    in
    let daemon =
      match target with
      | Some port -> Ok (port, fun () -> ())
      | None -> (
          let config = Serve.Config.(default |> with_workers workers) in
          match Serve.Daemon.create ~config land_ with
          | Error e -> Error e
          | Ok d -> (
              match Serve.Daemon.start d with
              | Error e -> Error e
              | Ok () -> Ok (Serve.Daemon.port d, fun () -> Serve.Daemon.stop d)
              ))
    in
    match daemon with
    | Error e ->
        prerr_endline ("error: " ^ e);
        1
    | Ok (port, teardown) -> (
        let outcome =
          if attackers = 0 then
            Result.map
              (fun s -> (s, None))
              (Serve.Loadgen.run ~host ~port ~clients ~requests ~addresses ())
          else
            Result.map
              (fun (s, h) -> (s, Some h))
              (Serve.Loadgen.run_hostile ~host ~port ~clients ~requests
                 ~attackers ~seed:hostile_seed ~addresses ())
        in
        teardown ();
        match outcome with
        | Error e ->
            prerr_endline ("error: " ^ e);
            1
        | Ok (stats, hostile) ->
            Printf.printf
              "%d clients x %d requests: %.0f req/s  p50 %.3f ms  p90 %.3f \
               ms  p99 %.3f ms  (%d errors, %d shed, %d deadline)\n"
              stats.Serve.Loadgen.lg_clients requests
              stats.Serve.Loadgen.lg_rps stats.Serve.Loadgen.lg_p50_ms
              stats.Serve.Loadgen.lg_p90_ms stats.Serve.Loadgen.lg_p99_ms
              stats.Serve.Loadgen.lg_errors stats.Serve.Loadgen.lg_shed
              stats.Serve.Loadgen.lg_deadline;
            (match hostile with
            | None -> ()
            | Some h ->
                Printf.printf
                  "hostile: %d attackers, %d rounds (%d shed, %d answered, \
                   %d cut, %d connect failures)\n"
                  h.Serve.Loadgen.hs_attackers h.Serve.Loadgen.hs_rounds
                  h.Serve.Loadgen.hs_shed h.Serve.Loadgen.hs_answered
                  h.Serve.Loadgen.hs_cut h.Serve.Loadgen.hs_connect_failures);
            (match out with
            | None -> 0
            | Some path ->
                let json =
                  Report.Json.Obj
                    ([ ("well_behaved", Serve.Loadgen.to_json stats) ]
                    @
                    match hostile with
                    | None -> []
                    | Some h ->
                        [ ("hostile", Serve.Loadgen.hostile_to_json h) ])
                in
                if
                  Telemetry_spec.write_file path (fun oc ->
                      Out_channel.output_string oc
                        (Report.Json.to_string ~pretty:true json);
                      Out_channel.output_char oc '\n')
                then 0
                else 1))

let bench_cmd =
  let doc =
    "Self-host a daemon over a synthetic landscape and drive it with \
     concurrent load-generator clients.  The measured daemon figures \
     come from proxbench's watch workload (proxbench/README.md)."
  in
  let clients_arg =
    Arg.(
      value & opt int 4
      & info [ "clients" ] ~docv:"N" ~doc:"Concurrent client domains.")
  in
  let requests_arg =
    Arg.(
      value & opt int 200
      & info [ "requests" ] ~docv:"N" ~doc:"Requests per client.")
  in
  let workers_arg =
    Arg.(
      value & opt int 4
      & info [ "workers" ] ~docv:"N" ~doc:"Daemon worker domains.")
  in
  let attackers_arg =
    Arg.(
      value & opt int 0
      & info [ "attackers" ] ~docv:"N"
          ~doc:
            "Also run $(docv) hostile clients (slowloris, half-open, \
             never-reads, oversized-flooder, connect-idle personas, \
             round-robin) while measuring well-behaved goodput.")
  in
  let hostile_seed_arg =
    Arg.(
      value & opt int 1
      & info [ "hostile-seed" ] ~docv:"SEED"
          ~doc:"Seed of the hostile clients' splitmix64 streams.")
  in
  let target_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "target-port" ] ~docv:"PORT"
          ~doc:
            "Drive an already-running daemon on $(docv) instead of \
             self-hosting one (start it with the same landscape flags).")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Also write the stats as JSON.")
  in
  Cmd.v (Cmd.info "bench" ~doc)
    Term.(
      const run_bench
      $ Chain_spec.term ~default_total:1_000 ()
      $ host_arg $ clients_arg $ requests_arg $ workers_arg $ attackers_arg
      $ hostile_seed_arg $ target_arg $ out_arg)

(* --- coverage / accuracy / perf / effectiveness ------------------------- *)

let coverage_cmd =
  let doc = "Regenerate Table 1 (tool coverage matrix) by measurement." in
  Cmd.v (Cmd.info "coverage" ~doc)
    Term.(
      const (fun () ->
          print_and_exit (Experiments.Table1.render (Experiments.Table1.run ()));
          0)
      $ const ())

let json_flag =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit machine-readable JSON.")

let accuracy_cmd =
  let size =
    Arg.(
      value & opt int 1
      & info [ "size-factor" ] ~docv:"K" ~doc:"Corpus scale multiplier.")
  in
  let doc = "Regenerate Table 2 (collision detection accuracy)." in
  Cmd.v (Cmd.info "accuracy" ~doc)
    Term.(
      const (fun size_factor json ->
          let rows = Experiments.Table2.run ~size_factor () in
          if json then
            print_endline (Report.Json.to_string (Experiments.Table2.to_json rows))
          else print_and_exit (Experiments.Table2.render rows);
          0)
      $ size $ json_flag)

let perf_cmd =
  let doc = "Regenerate the section 6.1 performance numbers." in
  Cmd.v (Cmd.info "perf" ~doc)
    Term.(
      const (fun total seed ->
          let p = Experiments.Perf.run ~config:(landscape_config total seed) () in
          print_string (Experiments.Perf.render_archive_calls p);
          print_newline ();
          print_and_exit (Experiments.Perf.render_timings p);
          0)
      $ Arg.(
          value & opt int 2_000
          & info [ "n"; "total" ] ~docv:"N" ~doc:"Population size.")
      $ seed_arg)

let effectiveness_cmd =
  let doc = "Regenerate the section 6.2 effectiveness comparisons." in
  Cmd.v (Cmd.info "effectiveness" ~doc)
    Term.(
      const (fun total seed ->
          let config = landscape_config total seed in
          print_string
            (Experiments.Effectiveness.render_sanctuary
               (Experiments.Effectiveness.run_sanctuary ~config ()));
          print_newline ();
          print_string
            (Experiments.Effectiveness.render_crush
               (Experiments.Effectiveness.run_crush ~config ()));
          0)
      $ Arg.(
          value & opt int 2_000
          & info [ "n"; "total" ] ~docv:"N" ~doc:"Population size.")
      $ seed_arg)

(* --- source: render pattern-library contracts --------------------------- *)

let pattern_table =
  [
    ("honeypot-proxy", fun () -> Minisol.Patterns.honeypot_proxy ());
    ("honeypot-logic", fun () -> Minisol.Patterns.honeypot_logic ());
    ("audius-proxy", fun () -> Minisol.Patterns.audius_proxy ());
    ("audius-logic", fun () -> Minisol.Patterns.audius_logic ());
    ("eip1967-proxy", fun () -> Minisol.Patterns.eip1967_proxy ());
    ("eip1822-proxy", fun () -> Minisol.Patterns.eip1822_proxy ());
    ("eip1822-logic", fun () -> Minisol.Patterns.eip1822_logic ());
    ("slot-proxy", fun () -> Minisol.Patterns.slot_var_proxy ());
    ("diamond-proxy", fun () -> Minisol.Patterns.diamond_proxy ());
    ("counter", fun () -> Minisol.Patterns.counter_logic ());
    ("token", fun () -> Minisol.Patterns.erc20ish_logic ());
    ("padding-proxy", fun () -> Minisol.Patterns.padding_proxy ());
    ("padding-logic", fun () -> Minisol.Patterns.padding_logic ());
  ]

let source_cmd =
  let pattern_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"PATTERN"
          ~doc:"Pattern name; omit to list available patterns.")
  in
  let bytecode_flag =
    Arg.(value & flag & info [ "b"; "bytecode" ] ~doc:"Also print the compiled runtime.")
  in
  let doc = "Render a pattern-library contract as Solidity-flavoured source." in
  Cmd.v (Cmd.info "source" ~doc)
    Term.(
      const (fun pattern bytecode ->
          match pattern with
          | None ->
              List.iter (fun (n, _) -> print_endline n) pattern_table;
              0
          | Some n -> (
              match List.assoc_opt n pattern_table with
              | None ->
                  Printf.eprintf "unknown pattern %s\n" n;
                  1
              | Some mk ->
                  let c = mk () in
                  print_string (Minisol.Pretty.contract c);
                  if bytecode then begin
                    print_newline ();
                    print_endline
                      (Hexutil.to_hex (Minisol.Codegen.runtime c))
                  end;
                  0))
      $ pattern_arg $ bytecode_flag)

(* --- trace: run calldata against bytecode and dump the call tree -------- *)

let trace_cmd =
  let code_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"BYTECODE" ~doc:"Runtime bytecode (hex).")
  in
  let input_arg =
    Arg.(
      value & opt string "0x"
      & info [ "i"; "input" ] ~docv:"CALLDATA" ~doc:"Transaction call data (hex).")
  in
  let doc = "Execute bytecode in a fresh world and print the call tree." in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(
      const (fun code_hex input_hex ->
          match (Hexutil.of_hex_opt code_hex, Hexutil.of_hex_opt input_hex) with
          | Some code, Some input ->
              let host = Evm.Host.in_memory () in
              let target =
                Evm.Address.of_hex "0x000000000000000000000000000000000000d000"
              in
              Evm.Host.with_code host target code;
              let caller =
                Evm.Address.of_hex "0x000000000000000000000000000000000000c000"
              in
              let result, tree = Evm.Trace.run host ~caller ~target ~input in
              print_string (Evm.Trace.to_string tree);
              Printf.printf "gas used: %d\n" result.Evm.Interp.gas_used;
              0
          | _ ->
              prerr_endline "error: invalid hex";
              1)
      $ code_arg $ input_arg)

(* --- multichain: the 8.2 survey ------------------------------------------ *)

let multichain_cmd =
  let doc = "Run the section-8.2 multichain survey (eight EVM chains)." in
  Cmd.v (Cmd.info "multichain" ~doc)
    Term.(
      const (fun base seed json ->
          let rows = Experiments.Multichain.run ~base_total:base ~seed () in
          if json then
            print_endline (Report.Json.to_string (Experiments.Multichain.to_json rows))
          else print_and_exit (Experiments.Multichain.render rows);
          0)
      $ Arg.(
          value & opt int 1_200
          & info [ "n"; "base-total" ] ~docv:"N"
              ~doc:"Ethereum population; other chains scale relatively.")
      $ seed_arg $ json_flag)

(* --- mine: selector collisions ------------------------------------------ *)

let mine_cmd =
  let count =
    Arg.(
      value & opt int 5
      & info [ "c"; "count" ] ~docv:"N" ~doc:"Number of colliding pairs.")
  in
  let target =
    Arg.(
      value & opt (some string) None
      & info [ "target" ] ~docv:"PROTO"
          ~doc:
            "Search for a prototype colliding with $(docv) (e.g. \
             'free_ether_withdrawal()') instead of mining arbitrary pairs.")
  in
  let budget =
    Arg.(
      value & opt int 2_000_000
      & info [ "budget" ] ~docv:"N" ~doc:"Attempt budget for --target search.")
  in
  let doc = "Mine 4-byte function-selector collisions (the paper's 2.3 claim)." in
  Cmd.v (Cmd.info "mine" ~doc)
    Term.(
      const (fun count target budget ->
          (match target with
          | Some proto -> (
              Printf.printf "searching for a collision with %s (selector %s)...\n%!"
                proto
                (Keccak.selector_hex proto);
              match Dataset.Sig_mine.find_collision_for ~budget proto with
              | Some other -> Printf.printf "found: %s\n" other
              | None ->
                  Printf.printf
                    "no collision within %d attempts (the paper needed ~600M \
                     for this shape)\n"
                    budget)
          | None ->
              List.iter
                (fun p ->
                  Printf.printf "%s  ==  %s  -> %s\n" p.Dataset.Sig_mine.sig_a
                    p.Dataset.Sig_mine.sig_b
                    (Hexutil.to_hex p.Dataset.Sig_mine.selector))
                (Dataset.Sig_mine.mine ~count ()));
          0)
      $ count $ target $ budget)

let default_cmd =
  Term.(ret (const (fun () -> `Help (`Pager, None)) $ const ()))

let () =
  let info =
    Cmd.info "proxion" ~version:"1.0.0"
      ~doc:
        "ProxioN: uncovering hidden proxy smart contracts and their collision \
         vulnerabilities (OCaml reproduction)."
  in
  exit
    (Cmd.eval'
       (Cmd.group ~default:default_cmd info
          [
            analyze_cmd;
            scan_cmd;
            serve_cmd;
            query_cmd;
            top_cmd;
            bench_cmd;
            coverage_cmd;
            accuracy_cmd;
            perf_cmd;
            effectiveness_cmd;
            mine_cmd;
            multichain_cmd;
            source_cmd;
            trace_cmd;
          ]))
