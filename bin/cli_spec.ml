(* Shared command-line flag groups.  Every subcommand that touches a
   synthetic chain, fault injection, tracing, telemetry or the durable
   journal assembles its interface from these specs, so flags spell and
   behave identically across `proxion scan`, `serve`, `query` and
   `bench`. *)

open Cmdliner

(* --- chain: the synthetic landscape -------------------------------------- *)

module Chain_spec = struct
  type t = { total : int; seed : int }

  let term ?(default_total = 36_000) () =
    let total =
      Arg.(
        value & opt int default_total
        & info [ "n"; "total" ] ~docv:"N"
            ~doc:
              (Printf.sprintf "Population size (default %d)." default_total))
    in
    let seed =
      Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")
    in
    Term.(const (fun total seed -> { total; seed }) $ total $ seed)

  let config t =
    {
      Dataset.Generate.default_config with
      Dataset.Generate.total = t.total;
      seed = t.seed;
    }

  let generate t = Dataset.Generate.generate (config t)
end

(* --- faults: injected archive faults and the emulation watchdog ---------- *)

module Faults_spec = struct
  type t = {
    rate : float;
    seed : int;
    latency : float;
    watchdog_steps : int option;
    endpoints : int;
    quorum : int;
  }

  let term =
    let rate =
      Arg.(
        value & opt float 0.0
        & info [ "fault-rate" ] ~docv:"P"
            ~doc:
              "Inject transient archive faults (rate limits, timeouts, node \
               errors) on fraction $(docv) of RPC attempts.  Deterministic: \
               the figures are identical to a fault-free run, faults only \
               exercise the retry/breaker path.")
    in
    let seed =
      Arg.(
        value & opt int 0
        & info [ "fault-seed" ] ~docv:"SEED"
            ~doc:"Seed of the injected fault plan (with --fault-rate).")
    in
    let latency =
      Arg.(
        value & opt float 0.0
        & info [ "fault-latency" ] ~docv:"S"
            ~doc:
              "Mean injected per-call latency in virtual seconds (never \
               sleeps the wall clock).")
    in
    let watchdog =
      Arg.(
        value
        & opt (some int) None
        & info [ "watchdog-steps" ] ~docv:"N"
            ~doc:
              "Per-contract EVM-step budget, enforced live inside emulation: \
               a contract looping in the probe is dead-lettered as \
               budget-exhausted after $(docv) steps instead of stalling its \
               worker.")
    in
    let endpoints =
      Arg.(
        value & opt int 1
        & info [ "endpoints" ] ~docv:"N"
            ~doc:
              "Size of the simulated archive endpoint pool (default 1).  \
               With N > 1 the transport fails over between endpoints and \
               can cross-validate answers (see --quorum); each endpoint \
               gets its own fault stream derived from --fault-seed.")
    in
    let quorum =
      Arg.(
        value & opt int 1
        & info [ "quorum" ] ~docv:"K"
            ~doc:
              "Require $(docv)-of-N identical answers before an RPC result \
               is consumed (default 1 = first healthy endpoint wins).  A \
               disagreeing endpoint is quarantined via its circuit \
               breaker.  Requires --endpoints >= $(docv).")
    in
    Term.(
      const (fun rate seed latency watchdog_steps endpoints quorum ->
          { rate; seed; latency; watchdog_steps; endpoints; quorum })
      $ rate $ seed $ latency $ watchdog $ endpoints $ quorum)

  let validate t =
    if t.rate < 0.0 || t.rate >= 1.0 then
      Error "--fault-rate must be in [0, 1)"
    else if t.endpoints < 1 then Error "--endpoints must be at least 1"
    else if t.quorum < 1 || t.quorum > t.endpoints then
      Error "--quorum must be in [1, --endpoints]"
    else
      match t.watchdog_steps with
      | Some w when w <= 0 -> Error "--watchdog-steps must be positive"
      | _ -> Ok t

  let resilience t =
    (* Each endpoint draws from its own fault stream; endpoint 0's seed
       is --fault-seed itself, so a single-endpoint pool reproduces the
       legacy injection stream exactly. *)
    let plan_for i =
      if t.rate > 0.0 || t.latency > 0.0 then
        Some
          (Resilience.Fault_plan.spec
             ~seed:(t.seed lxor (0x9e3779b9 * i))
             ~fault_rate:t.rate ~mean_latency:t.latency ())
      else None
    in
    if t.endpoints <= 1 then
      Resilience.Transport.config ?plan:(plan_for 0)
        ?step_budget:t.watchdog_steps ()
    else
      let eps =
        List.init t.endpoints (fun i ->
            Resilience.Transport.endpoint ?plan:(plan_for i)
              (Printf.sprintf "archive-%d" (i + 1)))
      in
      Resilience.Transport.config ?step_budget:t.watchdog_steps
        ~endpoints:eps ~quorum:t.quorum ()
end

(* --- trace: the streamed span timeline ------------------------------------ *)

(* One --trace-out for every subcommand that traces.  The file is opened
   at start, each span is written as it finishes, and the document is
   completed at exit — on every exit path, so a run stopped by an error
   still leaves a whole JSON file. *)
module Trace_out = struct
  let term =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Stream a Chrome trace-event JSON span timeline to $(docv), \
             loadable at ui.perfetto.dev: request > run > batch > item > \
             stage spans, with RPC dispatches and EVM frames on per-worker \
             lanes, all on one clock.  Spans are written as they finish, \
             not at shutdown; the file is completed at exit.")

  let open_ = function
    | None -> Ok None
    | Some path -> (
        match Obs.Trace.to_file path with
        | Ok tr ->
            at_exit (fun () -> try Obs.Trace.close tr with Sys_error _ -> ());
            Ok (Some tr)
        | Error e -> Error ("cannot write " ^ e))

  (* Complete the file now; false (after reporting it on stderr) when a
     write failed. *)
  let close path tr =
    match Obs.Trace.close tr with
    | () -> true
    | exception Sys_error e ->
        Printf.eprintf "error: cannot write %s: %s\n%!" path e;
        false
end

(* --- telemetry: progress logging, metrics and trace outputs -------------- *)

module Telemetry_spec = struct
  type t = {
    progress : bool;
    log_json : bool;
    log_level : Obs.Log.level;
    metrics_out : string option;
    metrics_det : bool;
    trace_out : string option;
  }

  let term =
    let progress =
      Arg.(
        value & flag
        & info [ "progress" ]
            ~doc:"Print per-batch progress and stage totals on stderr.")
    in
    let log_json =
      Arg.(
        value & flag
        & info [ "log-json" ]
            ~doc:
              "Emit progress as JSONL structured-log records on stderr \
               (implies --progress).")
    in
    let log_level =
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
        & info [ "log-level" ] ~docv:"LEVEL"
            ~doc:
              "Minimum progress-log level (debug|info|warn|error).  Debug \
               adds per-attempt retry and breaker detail that info \
               summarizes per batch.")
    in
    let metrics_out =
      Arg.(
        value
        & opt (some string) None
        & info [ "metrics-out" ] ~docv:"FILE"
            ~doc:
              "Write the telemetry registry to $(docv) when the run stops: \
               Prometheus text exposition, or a JSON snapshot when $(docv) \
               ends in .json.")
    in
    let metrics_det =
      Arg.(
        value & flag
        & info [ "metrics-deterministic" ]
            ~doc:
              "Suppress wall-clock-derived (volatile) metric families and \
               the snapshot timestamp, making --metrics-out byte-identical \
               across --domains values.")
    in
    Term.(
      const (fun progress log_json log_level metrics_out metrics_det trace_out ->
          { progress; log_json; log_level; metrics_out; metrics_det; trace_out })
      $ progress $ log_json $ log_level $ metrics_out $ metrics_det
      $ Trace_out.term)

  let log t =
    if t.progress || t.log_json then
      Some (Obs.Log.create ~level:t.log_level ~json:t.log_json stderr)
    else None

  let trace t = Trace_out.open_ t.trace_out

  let write_file path f =
    match Out_channel.with_open_text path f with
    | () -> true
    | exception Sys_error e ->
        Printf.eprintf "error: cannot write %s: %s\n%!" path e;
        false

  (* Write --metrics-out and complete --trace-out; returns false when any
     write failed (after reporting it on stderr). *)
  let write_outputs t ~registry ~trace =
    let metrics_ok =
      match t.metrics_out with
      | None -> true
      | Some path ->
          write_file path (fun oc ->
              if Filename.check_suffix path ".json" then begin
                Out_channel.output_string oc
                  (Report.Json.to_string ~pretty:true
                     (Obs.Metrics.to_json ~suppress_volatile:t.metrics_det
                        ?timestamp:
                          (if t.metrics_det then None
                           else Some (Obs.Clock.now Obs.Clock.real))
                        registry));
                Out_channel.output_char oc '\n'
              end
              else
                Out_channel.output_string oc
                  (Obs.Metrics.to_prometheus ~suppress_volatile:t.metrics_det
                     registry))
    in
    let trace_ok =
      match (t.trace_out, trace) with
      | Some path, Some tr -> Trace_out.close path tr
      | _ -> true
    in
    metrics_ok && trace_ok
end

(* --- analysis: scheduler batch size and worker domains ------------------ *)

module Analysis_spec = struct
  type t = { batch_size : int option; domains : int option }

  let term =
    let batch_size =
      Arg.(
        value
        & opt (some int) None
        & info [ "batch-size" ] ~docv:"N"
            ~doc:
              "Contracts per scheduler batch (default 32).  Overrides the \
               batch size of a resumed journal.")
    in
    let domains =
      Arg.(
        value
        & opt (some int) None
        & info [ "domains" ] ~docv:"N"
            ~doc:
              "Worker domains per batch (default 1: no helper domain).  \
               Output is byte-identical for every value.  The worker count is \
               never journaled: a resume runs with the --domains given, \
               default 1.")
    in
    Term.(
      const (fun batch_size domains -> { batch_size; domains })
      $ batch_size $ domains)

  let config t =
    let module C = Proxion.Analysis.Config in
    C.default
    |> (match t.batch_size with Some b -> C.with_batch_size b | None -> Fun.id)
    |> (match t.domains with Some d -> C.with_domains d | None -> Fun.id)
end

(* --- journal: the durable checkpoint journal ----------------------------- *)

module Journal_spec = struct
  let term ~doc =
    Arg.(
      value & opt (some string) None & info [ "journal" ] ~docv:"FILE" ~doc)

  let fsync_term =
    Arg.(
      value & opt bool true
      & info [ "journal-fsync" ] ~docv:"BOOL"
          ~doc:
            "Fsync journal commits to stable storage (default true).  \
             $(b,--journal-fsync=false) trades crash-durability of the \
             last batch for speed — tests and benchmarks only.  The mode \
             is recorded in the journal header.")
end
