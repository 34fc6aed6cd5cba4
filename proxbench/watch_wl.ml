(* The watch workload: a `proxion serve` process built from the same
   tree, one worker, a journal with the default fsync policy, driven in
   a closed loop over one connection; then a cold re-run and a warm
   journal recovery made in this process check what it served. *)

open Common
module G = Dataset.Generate
module D = Serve.Daemon
module A = Proxion.Analysis
module Json = Report.Json

(* A fixed number of rounds, not a time budget: the one failing request
   (the final report) must be the same share of every run.  100
   advances is the least that leaves ten samples beyond the p90. *)
let rounds = 100

(* --- the daemon process ---------------------------------------------------------- *)

type proc = { pid : int; port : int; mutable reaped : bool }

let children : proc list ref = ref []

(* A run never leaves a daemon behind: whatever ends the run, remaining
   children are killed and reaped. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun p ->
          if not p.reaped then begin
            (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
            (try ignore (Unix.waitpid [] p.pid) with Unix.Unix_error _ -> ());
            p.reaped <- true
          end)
        !children)

let spawn ~cli ~journal ~trace_out =
  let args =
    [
      cli; "serve"; "-n"; string_of_int !Scan_wl.size; "--seed";
      string_of_int Scan_wl.landscape_seed; "--port"; "0"; "--workers"; "1";
      "--journal"; journal; "--journal-fsync"; "false";
    ]
    @ match trace_out with Some p -> [ "--trace-out"; p ] | None -> []
  in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err =
    Unix.openfile (work_path "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
      0o644
  in
  let pid = Unix.create_process cli (Array.of_list args) Unix.stdin out_w err in
  Unix.close out_w;
  Unix.close err;
  let ic = Unix.in_channel_of_descr out_r in
  let line =
    try input_line ic
    with End_of_file -> failwith "daemon exited before listening (see daemon.log)"
  in
  close_in ic;
  let port =
    match String.index_opt line ':' with
    | Some i -> Scanf.sscanf (String.sub line (i + 1) (String.length line - i - 1)) "%d" Fun.id
    | None -> failwith ("unexpected daemon banner: " ^ line)
  in
  let p = { pid; port; reaped = false } in
  children := p :: !children;
  p

let reap p =
  if not p.reaped then begin
    ignore (Unix.waitpid [] p.pid);
    p.reaped <- true
  end

(* --- traced-mode span join --------------------------------------------------------- *)

(* Client request ids that also appear on a span the daemon wrote.  The
   daemon's trace file runs to hundreds of megabytes, so it is searched
   for the ids as text rather than parsed. *)
let joined_in_file path ids =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> 0
  | text ->
      let seen = Hashtbl.create 1024 in
      let key = "\"trace_id\"" and n = String.length text in
      let klen = String.length key in
      (* After each ["trace_id"] key: a colon, optional spaces, then the
         16-character id in quotes. *)
      let rec scan i =
        match String.index_from_opt text i '"' with
        | Some j when j + klen + 20 <= n ->
            if String.sub text j klen = key then begin
              let k = ref (j + klen + 1) in
              while !k < n && text.[!k] = ' ' do incr k done;
              if !k + 18 <= n && text.[!k] = '"' then
                Hashtbl.replace seen (String.sub text (!k + 1) 16) ();
              scan (!k + 1)
            end
            else scan (j + 1)
        | _ -> ()
      in
      scan 0;
      List.length (List.filter (Hashtbl.mem seen) ids)

(* --- the workload ------------------------------------------------------------------ *)

let run ~cli ~seed ~tracer =
  let since = host_ticks () in
  (* The read plan draws its addresses from the landscape, and the same
     untouched landscape later hosts the warm recovery and the cold
     re-run, so it is generated once, before the daemon starts. *)
  let c0 = cpu_self () in
  let land_ = Scan_wl.generate () in
  let gen_s = cpu_self () -. c0 in
  let rounds = if tracer = None then rounds else Serve_layers.traced_rounds in
  let plan = Session.read_plan ~seed ~rounds land_ in
  let journal = work_path "watch.jrnl" in
  remove_if_exists journal;
  let trace_out = Option.map (fun _ -> work_path "daemon-trace.json") tracer in
  Option.iter remove_if_exists trace_out;
  let t0 = now () in
  let p = spawn ~cli ~journal ~trace_out in
  let cpu () = cpu_of_pid p.pid in
  let s = Session.create ~tracer ~trace_seed:seed ~port:p.port () in
  Serve_layers.await_ready s;
  (* Set-up time: the daemon's CPU time from spawn to the first ready. *)
  let setup_s = cpu () in
  span tracer "daemon setup" ~t0 ~t1:(now ());
  let tally = { Session.attempted = 0; failed = 0 } in
  let before = Session.metrics s in
  let kernel = ref [] in
  let rs =
    Array.to_list
      (Array.map
         (fun reads ->
           kernel := kernel_ms () :: !kernel;
           Session.round s tally ~journal ~cpu reads)
         plan)
  in
  let scale = speed_scale !kernel in
  let after = Session.metrics s in
  let report = Session.call s "report" [] in
  Session.counted tally report;
  let rss = peak_rss_mb ~pid:(string_of_int p.pid) () in
  Session.close s;
  (* The report may have cost the connection; shut down on a fresh one. *)
  let s2 = Session.create ~tracer:None ~port:p.port () in
  ignore (Session.call s2 "shutdown" []);
  Session.close s2;
  reap p;
  (* Checks, apart from the daemon. *)
  let payload = Serve_layers.last_payload journal in
  let config =
    Serve_layers.daemon_config ~journal ~analysis:Proxion.Pipeline.Config.default
  in
  let d, recover_s =
    timed (fun () ->
        match D.create ~config land_ with Ok d -> d | Error e -> failwith e)
  in
  let correct = ref (D.recovered d) in
  if not !correct then log "daemon did not recover warm from its journal";
  let store = Serve.Store.report (D.store d) ~unique_codes:(D.unique_codes d) in
  D.stop d;
  let cold = Proxion.Pipeline.analyze ~chain:land_.G.chain ~source:land_.G.source_of () in
  (match Check.store_vs_cold ~store ~cold with
  | None -> ()
  | Some where ->
      log "recovered store differs from the cold re-run at %s" where;
      correct := false);
  let last = List.nth rs (rounds - 1) in
  List.iter
    (fun (meth, addr, c) ->
      match c.Session.c_result with
      | Ok served when not (Check.read_matches ~cold meth addr served) ->
          log "%s %s differs from the cold re-run" meth (Evm.Address.to_hex addr);
          tally.Session.failed <- tally.Session.failed + 1
      | _ -> ())
    last.Session.reads;
  (match last.Session.findings_total with
  | Some n when n <> Check.findings_total cold ->
      log "served findings total %d, cold %d" n (Check.findings_total cold);
      tally.Session.failed <- tally.Session.failed + 1
  | _ -> ());
  (match report.Session.c_result with
  | Ok served
    when Json.to_string served
         <> Json.to_string (Proxion.Serialize.report_to_json cold) ->
      log "served report differs from the cold re-run";
      tally.Session.failed <- tally.Session.failed + 1
  | _ -> ());
  let analyzed = sum (List.map (fun r -> float_of_int (r.Session.dirty + r.Session.fresh)) rs) in
  let adv_cpu = List.map (fun r -> r.Session.advance_cpu_ms) rs in
  (* The median advance's rate, over the daemon's CPU time: what other
     tenants of the host take shows in neither. *)
  let contracts_per_cpu_s =
    median
      (List.map
         (fun r ->
           float_of_int (r.Session.dirty + r.Session.fresh)
           /. (r.Session.advance_cpu_ms /. 1000.0))
         rs)
  in
  let metrics =
    match tracer with
    | None ->
        [
          metric "setup_s" "s" (setup_s *. scale);
          metric "peak_rss_mb" "MiB" rss;
          metric "contracts_per_ref_s" "1/s" (contracts_per_cpu_s /. scale);
          metric "api_calls_per_contract" "calls"
            (Session.delta ~labels:[ ("method", "eth_getStorageAt") ] ~before ~after
               "proxion_api_method_calls_total" "value"
            /. analyzed);
          metric "update_ref_p50_ms" "ms" (percentile adv_cpu 0.5 *. scale);
          metric "update_ref_p90_ms" "ms" (percentile adv_cpu 0.9 *. scale);
          metric "bytes_per_contract" "bytes"
            (sum (List.map (fun r -> float_of_int r.Session.journal_bytes) rs) /. analyzed);
        ]
    | Some _ ->
        let layers = Layers.create () in
        Serve_layers.fill layers ~rs ~before ~after ~payload ~recover_s
          ~reports:cold.A.contracts
          ~writes:(Serve_layers.writes_for ~seed cold.A.contracts)
          ~joined:(joined_in_file (Option.get trace_out) s.Session.trace_ids);
        Layers.set layers "dataset.generate_s" gen_s;
        Layers.set layers "traced.contracts_per_ref_s" (contracts_per_cpu_s /. scale);
        Layers.set layers "traced.update_ref_p50_ms" (percentile adv_cpu 0.5 *. scale);
        Layers.set layers "traced.update_cpu_p50_ms" (percentile adv_cpu 0.5);
        Layers.set layers "host.kernel_ms" (median !kernel);
        Layers.set layers "traced.update_wall_p50_ms"
          (percentile (List.map (fun r -> r.Session.advance_ms) rs) 0.5);
        (* The analysis layers come from traced cold passes over the
           advanced chain (after the checks, so nothing they do can
           touch what was checked). *)
        let st = Scan_wl.stages () in
        let config = Proxion.Pipeline.Config.default in
        ignore (Scan_wl.pass ~tracer ~config land_);
        let first = Scan_wl.pass ~stages:st ~tracer ~config land_ in
        Scan_wl.analysis_layers layers ~land_ ~seed st ~first [ first ];
        Layers.set layers "host.steal_share" (steal_share ~since);
        Layers.to_metrics layers
  in
  {
    o_correct = !correct;
    o_attempted = tally.Session.attempted;
    o_failed = tally.Session.failed;
    o_metrics = metrics;
  }

