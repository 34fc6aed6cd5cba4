(* Domain-parallel execution: the deterministic-merge contract.  A run
   fanned over N worker domains must be byte-identical to the sequential
   run — same report (including the API-call and EVM-step accounting),
   same event order, same checkpoint/resume behaviour — and a worker
   failure must drop only the failing item.

   The worker count under test defaults to 4 and can be overridden with
   the DOMAINS environment variable (the CI matrix runs 1 and 4). *)

module Generate = Dataset.Generate

let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)
let check_s = Alcotest.(check string)
let check_sl = Alcotest.(check (list string))

let domains_under_test =
  match Sys.getenv_opt "DOMAINS" with
  | Some s -> ( try max 1 (int_of_string (String.trim s)) with _ -> 4)
  | None -> 4

let small_config = { Generate.quick_config with Generate.total = 300; seed = 23 }
let report_string r = Report.Json.to_string (Proxion.Serialize.report_to_json r)

let analyze ~domains ?max_batches () =
  let land_ = Generate.generate small_config in
  let config =
    Proxion.Pipeline.Config.(
      default |> with_batch_size 16 |> with_domains domains)
  in
  let t =
    Proxion.Analyzer.create ~config ~chain:land_.Generate.chain
      ~source:land_.Generate.source_of ()
  in
  Proxion.Analyzer.submit_all t;
  Proxion.Analyzer.run ?max_batches t;
  (t, land_)

(* The order-sensitive skeleton of an event: kind, stage, subject.
   Timings are wall-clock (never comparable) and worker ids legitimately
   differ between runs, so both are erased. *)
let event_skeleton = function
  | Engine.Run_started { pending; batch_size; _ } ->
      Some (Printf.sprintf "run-started %d %d" pending batch_size)
  | Engine.Batch_started { index; size } ->
      Some (Printf.sprintf "batch-started %d %d" index size)
  | Engine.Batch_finished { index; size; _ } ->
      Some (Printf.sprintf "batch-finished %d %d" index size)
  | Engine.Stage_finished { stage; subject; _ } ->
      Some (Printf.sprintf "finish %s %s" (Engine.stage_name stage) subject)
  | Engine.Stage_errored { stage; subject; _ } ->
      Some (Printf.sprintf "error %s %s" (Engine.stage_name stage) subject)
  | Engine.Retry_attempted { subject; attempt; _ } ->
      Some (Printf.sprintf "retry %s %d" subject attempt)
  | Engine.Circuit_opened { endpoint; subject; _ } ->
      Some (Printf.sprintf "circuit-opened %s %s" endpoint subject)
  | Engine.Circuit_closed { endpoint; subject; _ } ->
      Some (Printf.sprintf "circuit-closed %s %s" endpoint subject)
  | Engine.Item_skipped { subject; _ } -> Some ("skip " ^ subject)
  | Engine.Item_finished { subject; _ } -> Some ("item " ^ subject)
  | Engine.Run_finished { processed; skipped; _ } ->
      Some (Printf.sprintf "run-finished %d %d" processed skipped)

let test_parallel_report_identical () =
  let seq, _ = analyze ~domains:1 () in
  let skeletons t =
    let acc = ref [] in
    Proxion.Analyzer.subscribe t (fun ev ->
        match event_skeleton ev with
        | Some s -> acc := s :: !acc
        | None -> ());
    acc
  in
  let land_seq = Generate.generate small_config in
  let seq_ev_t =
    Proxion.Analyzer.create
      ~config:
        Proxion.Pipeline.Config.(
          default |> with_batch_size 16 |> with_domains 1)
      ~chain:land_seq.Generate.chain ~source:land_seq.Generate.source_of ()
  in
  let seq_events = skeletons seq_ev_t in
  Proxion.Analyzer.submit_all seq_ev_t;
  Proxion.Analyzer.run seq_ev_t;
  let land_par = Generate.generate small_config in
  let par =
    Proxion.Analyzer.create
      ~config:
        Proxion.Pipeline.Config.(
          default |> with_batch_size 16 |> with_domains domains_under_test)
      ~chain:land_par.Generate.chain ~source:land_par.Generate.source_of ()
  in
  let par_events = skeletons par in
  Proxion.Analyzer.submit_all par;
  Proxion.Analyzer.run par;
  check_i "parallel engine carries the worker count" domains_under_test
    (Engine.domains (Proxion.Analyzer.engine par));
  check_s
    (Printf.sprintf "report with %d domains is byte-identical to sequential"
       domains_under_test)
    (report_string (Proxion.Analyzer.report seq))
    (report_string (Proxion.Analyzer.report par));
  check_sl "event order is identical to sequential"
    (List.rev !seq_events) (List.rev !par_events);
  (* Workers read the archive through views; their calls still reach the
     chain's own counter, the figure a caller of the analyzer reads. *)
  let root_calls land_ = Chain.api_call_count land_.Generate.chain in
  check_i "the chain's API-call counter is the same at any worker count"
    (root_calls land_seq) (root_calls land_par);
  check_i "the chain's API-call counter agrees with the report"
    (Proxion.Analyzer.report par).Proxion.Pipeline.stats
      .Proxion.Pipeline.s_api_calls
    (root_calls land_par)

let test_parallel_checkpoint_resume () =
  (* Reference: uninterrupted sequential run. *)
  let seq, _ = analyze ~domains:1 () in
  (* Parallel run interrupted mid-queue. *)
  let half, _ = analyze ~domains:domains_under_test ~max_batches:2 () in
  check_b "interrupted mid-queue" true (Proxion.Analyzer.pending half > 0);
  let ck_text =
    Report.Json.to_string ~pretty:true (Proxion.Analyzer.checkpoint half)
  in
  let ck =
    match Report.Json.parse ck_text with
    | Ok j -> j
    | Error e -> Alcotest.failf "checkpoint does not reparse: %s" e
  in
  (* "New process": fresh landscape, resume with the same worker count. *)
  let land_ = Generate.generate small_config in
  let resumed =
    match
      Proxion.Analyzer.restore ~domains:domains_under_test
        ~chain:land_.Generate.chain ~source:land_.Generate.source_of ck
    with
    | Ok t -> t
    | Error e -> Alcotest.failf "restore failed: %s" e
  in
  Proxion.Analyzer.run resumed;
  check_i "queue drained" 0 (Proxion.Analyzer.pending resumed);
  check_s "resumed parallel report is byte-identical to sequential"
    (report_string (Proxion.Analyzer.report seq))
    (report_string (Proxion.Analyzer.report resumed))

(* The worker count is never checkpointed: runs stopped at the same batch
   boundary at 1 and N domains write the same checkpoint bytes. *)
let test_checkpoint_bytes_any_worker_count () =
  let checkpoint_text domains =
    let t, _ = analyze ~domains ~max_batches:2 () in
    Report.Json.to_string (Proxion.Analyzer.checkpoint t)
  in
  check_s
    (Printf.sprintf "checkpoint at %d domains equals the sequential one"
       domains_under_test)
    (checkpoint_text 1)
    (checkpoint_text domains_under_test)

let test_worker_failure_isolation () =
  let t =
    Engine.create ~batch_size:8 ~domains:domains_under_test
      ~subject:string_of_int
      ~process:(fun _ n ->
        if n = 5 then failwith "synthetic worker crash" else Ok (n * 10))
      ()
  in
  let skips = ref [] in
  Engine.subscribe t (fun ev ->
      match ev with
      | Engine.Item_skipped { subject; _ } -> skips := subject :: !skips
      | _ -> ());
  Engine.submit t [ 1; 2; 3; 4; 5; 6; 7; 8 ];
  Engine.run t;
  Alcotest.(check (list int))
    "every other item completes, in order"
    [ 10; 20; 30; 40; 60; 70; 80 ]
    (Engine.results t);
  check_i "exactly one item skipped" 1 (List.length (Engine.skipped t));
  let r = List.hd (Engine.skipped t) in
  let subject = r.Engine.sk_subject and message = r.Engine.sk_message in
  check_s "the failing item is the one skipped" "5" subject;
  check_b "worker crash classified permanent" true
    (r.Engine.sk_class = Engine.Permanent);
  check_b "exception text preserved" true
    (let needle = "synthetic worker crash" in
     let rec contains i =
       i + String.length needle <= String.length message
       && (String.sub message i (String.length needle) = needle
          || contains (i + 1))
     in
     contains 0);
  check_sl "Item_skipped event delivered" [ "5" ] !skips

let suite =
  [
    Alcotest.test_case "parallel report byte-identical to sequential" `Quick
      test_parallel_report_identical;
    Alcotest.test_case "parallel checkpoint resumes to identical figures"
      `Quick test_parallel_checkpoint_resume;
    Alcotest.test_case "worker failure skips only the failing item" `Quick
      test_worker_failure_isolation;
    Alcotest.test_case "checkpoint bytes identical at any worker count" `Quick
      test_checkpoint_bytes_any_worker_count;
  ]
