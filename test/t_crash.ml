(* The crash-tolerance harness: worker supervision, item watchdogs and
   the durable checkpoint journal.

   Journal level — creation, commit visibility, torn-tail truncation
   (swept over every prefix of a valid journal), single-byte corruption
   (swept over every offset), and manual + automatic compaction are each
   pinned to the recovery contract: open never raises, and always lands
   on a committed prefix.  Engine level — seeded worker kills must be
   schedule-independent (DOMAINS 1 and N byte-identical), survivable
   (the supervisor respawns and the batch completes) and recoverable
   (requeue converges to the fault-free figures).  Checkpoint level —
   no truncation or corruption of an analyzer checkpoint makes its
   restore raise.  Analyzer level — a journaled run killed between
   batches must resume to a byte-identical report with at most one
   batch re-executed.

   Knobs mirror the CI matrix: CHAOS_SEED seeds the crash plans
   (default 1) and DOMAINS the parallel worker count (default 4). *)

module Generate = Dataset.Generate
module Journal = Resilience.Journal

let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)
let check_s = Alcotest.(check string)
let check_sl = Alcotest.(check (list string))

let chaos_seed =
  match Sys.getenv_opt "CHAOS_SEED" with
  | Some s -> ( try int_of_string (String.trim s) with _ -> 1)
  | None -> 1

let domains_under_test =
  match Sys.getenv_opt "DOMAINS" with
  | Some s -> ( try max 1 (int_of_string (String.trim s)) with _ -> 4)
  | None -> 4

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected Error: %s" e

let invalid f = try ignore (f ()) ; false with Invalid_argument _ -> true

(* ------------------------------------------------------------------ *)
(* Scratch files                                                       *)
(* ------------------------------------------------------------------ *)

let fresh_path =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "proxion_t_crash_%d_%d.jrnl" (Unix.getpid ()) !n)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let append_raw path s =
  Out_channel.with_open_gen
    [ Open_append; Open_binary ]
    0o644 path
    (fun oc -> Out_channel.output_string oc s)

let remove path = try Sys.remove path with Sys_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Journal: creation, commit visibility, recovery                      *)
(* ------------------------------------------------------------------ *)

let test_journal_create_and_reopen () =
  let path = fresh_path () in
  let j, r = ok (Journal.open_journal ~fsync:false path) in
  check_b "fresh journal has no state" true (r.Journal.rec_state = None);
  check_i "fresh journal has no commits" 0 r.Journal.rec_committed;
  check_i "fresh journal dropped nothing" 0 r.Journal.rec_dropped_bytes;
  ok (Journal.checkpoint j "alpha");
  ok (Journal.checkpoint j "beta");
  check_b "last_committed tracks the newest checkpoint" true
    (Journal.last_committed j = Some "beta");
  check_s "path accessor" path (Journal.path j);
  Journal.close j;
  let j2, r2 = ok (Journal.open_journal ~fsync:false path) in
  Journal.close j2;
  check_b "reopen recovers the newest checkpoint" true
    (r2.Journal.rec_state = Some "beta");
  check_i "both commits retained" 2 r2.Journal.rec_committed;
  check_i "clean file drops nothing" 0 r2.Journal.rec_dropped_bytes;
  remove path

let test_journal_header_records_durability () =
  let path = fresh_path () in
  (* A fresh journal stamps its durability mode into the header. *)
  let j, r = ok (Journal.open_journal ~fsync:false path) in
  check_b "fresh unsynced journal reports its mode" false r.Journal.rec_durable;
  ok (Journal.checkpoint j "state");
  Journal.close j;
  let data = read_file path in
  check_s "v2 magic" "PXJRNL02" (String.sub data 0 8);
  check_b "durability byte says unsynced" true (data.[8] = 'U');
  (* The recorded mode is what the writer promised, not what the reader
     asks for: reopening with fsync on still reports the file's mode. *)
  let j2, r2 = ok (Journal.open_journal ~fsync:true path) in
  check_b "recorded mode survives reopen" false r2.Journal.rec_durable;
  check_b "state recovered under the v2 header" true
    (r2.Journal.rec_state = Some "state");
  Journal.close j2;
  (* A v1 file (bare magic, no durability byte) is refused with an
     error naming the format, and left as it was. *)
  let v1 = "PXJRNL01" ^ String.sub data 9 (String.length data - 9) in
  write_file path v1;
  (match Journal.open_journal ~fsync:false path with
  | Ok (j3, _) ->
      Journal.close j3;
      Alcotest.fail "v1 journal accepted"
  | Error e ->
      check_b "the refusal names the v1 format" true
        (contains ~needle:"PXJRNL01" e));
  check_s "the refused file is untouched" v1 (read_file path);
  remove path

let test_journal_uncommitted_tail_dropped () =
  let path = fresh_path () in
  let j, _ = ok (Journal.open_journal ~fsync:false path) in
  ok (Journal.checkpoint j "committed");
  ok (Journal.append j "appended-but-never-committed");
  check_b "append alone does not move the committed state" true
    (Journal.last_committed j = Some "committed");
  Journal.close j;
  append_raw path "GARBAGE-TORN-WRITE";
  let j2, r = ok (Journal.open_journal ~fsync:false path) in
  Journal.close j2;
  check_b "recovery lands on the last commit" true
    (r.Journal.rec_state = Some "committed");
  check_i "only the committed record is retained" 1 r.Journal.rec_committed;
  check_b "the uncommitted record and garbage are both dropped" true
    (r.Journal.rec_dropped_bytes
    > String.length "appended-but-never-committed");
  (* the truncation is physical: a second recovery drops nothing *)
  let j3, r3 = ok (Journal.open_journal ~fsync:false path) in
  Journal.close j3;
  check_i "second recovery is clean" 0 r3.Journal.rec_dropped_bytes;
  remove path

(* Sweep every prefix of a valid journal, as a kill at any byte would
   leave it: open must never raise, sub-magic prefixes are the only
   errors, and every other prefix recovers exactly the last checkpoint
   whose commit frame survived whole — and stays appendable. *)
let test_journal_torn_tail_sweep () =
  let path = fresh_path () in
  let payloads = [ "s1"; "s2-longer-payload"; "s3" ] in
  let j, _ = ok (Journal.open_journal ~fsync:false path) in
  List.iter (fun p -> ok (Journal.checkpoint j p)) payloads;
  Journal.close j;
  let data = read_file path in
  (* header is 9 bytes (8-byte magic + durability byte); each frame is a
     9-byte header + payload; a checkpoint is one record frame plus one
     empty commit frame *)
  let commit_ends =
    let off = ref 9 in
    List.map
      (fun p ->
        off := !off + 9 + String.length p + 9;
        (!off, p))
      payloads
  in
  let expected len =
    List.fold_left
      (fun acc (e, p) -> if e <= len then Some p else acc)
      None commit_ends
  in
  let scratch = fresh_path () in
  for len = 0 to String.length data do
    write_file scratch (String.sub data 0 len);
    (match Journal.open_journal ~fsync:false scratch with
    | exception e ->
        Alcotest.failf "open raised at prefix %d: %s" len (Printexc.to_string e)
    | Error _ ->
        check_b
          (Printf.sprintf "prefix %d: only sub-header prefixes error" len)
          true (len < 9)
    | Ok (j2, r) ->
        check_b
          (Printf.sprintf "prefix %d: recovers the last whole commit" len)
          true
          (r.Journal.rec_state = expected len);
        let valid_end =
          List.fold_left
            (fun acc (e, _) -> if e <= len then e else acc)
            9 commit_ends
        in
        check_i
          (Printf.sprintf "prefix %d: file truncated back to the commit" len)
          valid_end
          (Unix.stat scratch).Unix.st_size;
        (* the recovered journal accepts new work *)
        ok (Journal.checkpoint j2 "post-recovery");
        Journal.close j2;
        let j3, r3 = ok (Journal.open_journal ~fsync:false scratch) in
        Journal.close j3;
        check_b
          (Printf.sprintf "prefix %d: appendable after recovery" len)
          true
          (r3.Journal.rec_state = Some "post-recovery"))
  done;
  remove scratch;
  remove path

(* Flip one byte at every offset of a valid journal: recovery must never
   raise, never error once the magic is intact, and always land on one
   of the states a commit actually covered (the CRC walls off anything
   else). *)
let test_journal_corruption_sweep () =
  let path = fresh_path () in
  let payloads = [ "s1"; "s2-longer-payload"; "s3" ] in
  let j, _ = ok (Journal.open_journal ~fsync:false path) in
  List.iter (fun p -> ok (Journal.checkpoint j p)) payloads;
  Journal.close j;
  let data = read_file path in
  let allowed = None :: List.map (fun p -> Some p) payloads in
  let scratch = fresh_path () in
  for i = 0 to String.length data - 1 do
    let b = Bytes.of_string data in
    Bytes.set b i (Char.chr (Char.code data.[i] lxor 0x5A));
    write_file scratch (Bytes.to_string b);
    match Journal.open_journal ~fsync:false scratch with
    | exception e ->
        Alcotest.failf "open raised on flip at %d: %s" i (Printexc.to_string e)
    | Error _ ->
        check_b
          (Printf.sprintf "flip at %d: only header corruption errors" i)
          true (i < 9)
    | Ok (j2, r) ->
        Journal.close j2;
        check_b (Printf.sprintf "flip at %d: header intact opens" i) true (i >= 9);
        check_b
          (Printf.sprintf "flip at %d: lands on a committed state" i)
          true
          (List.mem r.Journal.rec_state allowed)
  done;
  remove scratch;
  remove path

let test_journal_compaction () =
  let path = fresh_path () in
  let j, _ = ok (Journal.open_journal ~fsync:false path) in
  for i = 1 to 10 do
    ok (Journal.checkpoint j (Printf.sprintf "state-%d" i))
  done;
  let big = (Unix.stat path).Unix.st_size in
  ok (Journal.compact j "state-10");
  let small = (Unix.stat path).Unix.st_size in
  check_b "compaction shrinks the file" true (small < big);
  check_b "compaction preserves the committed state" true
    (Journal.last_committed j = Some "state-10");
  (* the compacted journal is still live *)
  ok (Journal.checkpoint j "state-11");
  Journal.close j;
  let j2, r = ok (Journal.open_journal ~fsync:false path) in
  Journal.close j2;
  check_b "compacted state survives reopen" true
    (r.Journal.rec_state = Some "state-11");
  check_i "one compacted record plus one appended" 2 r.Journal.rec_committed;
  remove path

let test_journal_auto_compaction () =
  let path = fresh_path () in
  let j, _ = ok (Journal.open_journal ~fsync:false ~compact_bytes:64 path) in
  for i = 1 to 50 do
    ok (Journal.checkpoint j (Printf.sprintf "auto-%d" i))
  done;
  let size = (Unix.stat path).Unix.st_size in
  check_b "auto-compaction bounds the file" true (size < 200);
  Journal.close j;
  let j2, r = ok (Journal.open_journal ~fsync:false path) in
  Journal.close j2;
  check_b "latest state survives auto-compaction" true
    (r.Journal.rec_state = Some "auto-50");
  remove path

let test_journal_rejects_foreign_files () =
  let path = fresh_path () in
  write_file path "definitely not a journal";
  (match Journal.open_journal ~fsync:false path with
  | Ok _ -> Alcotest.fail "foreign file accepted"
  | Error e -> check_b "bad magic named" true (contains ~needle:"magic" e));
  remove path;
  check_b "compact_bytes must be positive" true
    (invalid (fun () -> Journal.open_journal ~compact_bytes:0 path))

(* ------------------------------------------------------------------ *)
(* Fuel watchdog                                                       *)
(* ------------------------------------------------------------------ *)

let test_watchdog_fuel_exhaustion () =
  let open Evm in
  check_b "fuel budget must be positive" true
    (invalid (fun () -> Interp.fuel 0));
  let target = Address.of_u256 (U256.of_int 0xc0a) in
  let caller = Address.of_u256 (U256.of_int 0xa11ce) in
  let host = Host.in_memory () in
  let looping =
    Asm.assemble
      [ Asm.Jumpdest "top"; Asm.Push_label "top"; Asm.Op Opcode.JUMP ]
  in
  Host.with_code host target looping;
  let f = Interp.fuel 100 in
  (match
     Interp.execute
       ~tracer:(Interp.guard_fuel f Interp.no_tracer)
       host
       (Interp.make_call ~caller ~target ~input:"" ())
   with
  | _ -> Alcotest.fail "runaway execution outlived its fuel"
  | exception Interp.Fuel_exhausted { budget } ->
      check_i "the exception names the budget" 100 budget);
  check_i "fuel fully consumed" 0 (Interp.fuel_remaining f);
  (* a budget big enough for the program never fires *)
  let halting =
    Asm.assemble [ Asm.Push_int 0; Asm.Push_int 0; Asm.Op Opcode.RETURN ]
  in
  Host.with_code host target halting;
  let f2 = Interp.fuel 10_000 in
  let r =
    Interp.execute
      ~tracer:(Interp.guard_fuel f2 Interp.no_tracer)
      host
      (Interp.make_call ~caller ~target ~input:"" ())
  in
  check_b "guarded execution succeeds under budget" true (Interp.succeeded r);
  check_b "steps were metered" true (Interp.fuel_remaining f2 < 10_000);
  check_b "metering is bounded by the program" true
    (Interp.fuel_remaining f2 > 9_000)

(* ------------------------------------------------------------------ *)
(* Engine supervision                                                  *)
(* ------------------------------------------------------------------ *)

let crashy_engine ~domains () =
  Engine.create ~batch_size:4 ~domains
    ~crash_plan:(Engine.crash_plan ~subjects:[ "3"; "7" ] ())
    ~subject:string_of_int
    ~process:(fun _ n -> Ok (string_of_int (n * 2)))
    ()

let run_crashy ~domains () =
  let t = crashy_engine ~domains () in
  Engine.submit t [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ];
  Engine.run t;
  t

let test_engine_worker_crash_supervision () =
  let t = run_crashy ~domains:1 () in
  check_sl "survivors complete in submission order"
    [ "2"; "4"; "8"; "10"; "12"; "16"; "18"; "20" ]
    (Engine.results t);
  check_i "both kills counted" 2 (Engine.crashes t);
  let dead = Engine.skipped t in
  check_i "both kills dead-lettered" 2 (List.length dead);
  List.iter
    (fun r ->
      check_b "classified worker-crashed" true
        (r.Engine.sk_class = Engine.Worker_crashed);
      check_b "the crash is named in the message" true
        (contains ~needle:"worker crashed" r.Engine.sk_message))
    dead;
  check_i "class tallies agree" 2
    (List.length
       (List.filter
          (fun r -> r.Engine.sk_class = Engine.Worker_crashed)
          (Engine.skipped t)));
  check_b "crash rate must be a probability" true
    (invalid (fun () -> Engine.crash_plan ~rate:1.5 ()));
  (* the plan kills each subject once: requeue converges *)
  check_i "default requeue recycles worker-crashed entries" 2
    (Engine.requeue t);
  Engine.run t;
  check_i "no dead letters after the retry" 0 (List.length (Engine.skipped t));
  check_sl "every item eventually completed"
    [ "2"; "4"; "8"; "10"; "12"; "16"; "18"; "20"; "6"; "14" ]
    (Engine.results t)

let test_engine_crash_schedule_independence () =
  let seq = run_crashy ~domains:1 () in
  let par = run_crashy ~domains:domains_under_test () in
  check_sl "results identical across worker counts" (Engine.results seq)
    (Engine.results par);
  check_i "crash count identical" (Engine.crashes seq) (Engine.crashes par);
  check_sl "dead letters identical"
    (List.map (fun r -> r.Engine.sk_subject ^ ":" ^ r.Engine.sk_message)
       (Engine.skipped seq))
    (List.map (fun r -> r.Engine.sk_subject ^ ":" ^ r.Engine.sk_message)
       (Engine.skipped par));
  check_b "state identical across worker counts" true
    (Engine.state seq = Engine.state par);
  ignore (Engine.requeue seq);
  ignore (Engine.requeue par);
  Engine.run seq;
  Engine.run par;
  check_b "still identical after requeue and completion" true
    (Engine.state seq = Engine.state par)

(* A worker dying of a real runtime fatal (deep non-tail recursion blowing
   the stack) must be supervised exactly like an injected kill. *)
let rec boom n = 1 + boom (n + 1)

let test_engine_stack_overflow_supervision () =
  List.iter
    (fun domains ->
      let t =
        Engine.create ~batch_size:4 ~domains ~subject:string_of_int
          ~process:(fun _ n ->
            if n = 13 then Ok (string_of_int (boom 1)) else Ok (string_of_int n))
          ()
      in
      Engine.submit t [ 11; 12; 13; 14; 15 ];
      Engine.run t;
      let label = Printf.sprintf "domains %d" domains in
      check_sl (label ^ ": survivors complete")
        [ "11"; "12"; "14"; "15" ]
        (Engine.results t);
      check_i (label ^ ": one crash") 1 (Engine.crashes t);
      match Engine.skipped t with
      | [ r ] ->
          check_s (label ^ ": the in-flight item is the casualty") "13"
            r.Engine.sk_subject;
          check_b (label ^ ": classified worker-crashed") true
            (r.Engine.sk_class = Engine.Worker_crashed);
          check_b (label ^ ": overflow named") true
            (contains ~needle:"Stack overflow" r.Engine.sk_message)
      | l -> Alcotest.failf "%s: expected 1 dead letter, got %d" label
               (List.length l))
    [ 1; domains_under_test ]

(* ------------------------------------------------------------------ *)
(* Analyzer.restore hardening                                          *)
(* ------------------------------------------------------------------ *)

(* A chain whose checkpoint exercises every field: a pending queue,
   results, a dead letter pinned to a stage (the source oracle fails on
   [bad]'s collision check), and both caches, holding a verdict, a
   storage-slot proxy and collision pairs. *)
let hardening_fixture () =
  let chain = Chain.create () in
  let install ast =
    Chain.install_contract chain ~runtime:(Minisol.Codegen.runtime ast) ()
  in
  let logic = install (Minisol.Patterns.counter_logic ()) in
  let slot_proxy = install (Minisol.Patterns.slot_var_proxy ()) in
  Chain.set_storage_direct chain slot_proxy U256.one
    (Evm.Address.to_u256 logic);
  let clone () =
    Chain.install_contract chain
      ~runtime:(Minisol.Patterns.eip1167_runtime logic)
      ()
  in
  let bad = clone () in
  let p1 = clone () in
  let p2 = clone () in
  let source addr =
    if Evm.Address.equal addr bad then failwith "source oracle outage"
    else None
  in
  (chain, source, [ logic; slot_proxy; bad; p1; p2; logic ])

let hardening_landscape = "hardening-fixture"

let hardening_restore (chain, source, _) json =
  Proxion.Analyzer.restore ~landscape:hardening_landscape ~chain ~source json

let hardening_checkpoint (chain, source, subjects) =
  let t =
    Proxion.Analyzer.create
      ~config:Proxion.Analysis.Config.(default |> with_batch_size 2)
      ~chain ~source ()
  in
  Proxion.Analyzer.submit t subjects;
  Proxion.Analyzer.run ~max_batches:2 t;
  Proxion.Analyzer.checkpoint ~landscape:hardening_landscape t

let test_of_json_truncation_sweep () =
  let fixture = hardening_fixture () in
  let ck = hardening_checkpoint fixture in
  let text = Report.Json.to_string ck in
  check_b "the sweep has material to chew on" true (String.length text > 100);
  (* byte-level truncations: the parser rejects them, nothing raises *)
  for len = 0 to String.length text - 1 do
    match Report.Json.parse (String.sub text 0 len) with
    | Error _ -> ()
    | Ok json -> (
        match hardening_restore fixture json with
        | Ok _ | Error _ -> ()
        | exception e ->
            Alcotest.failf "restore raised at truncation %d: %s" len
              (Printexc.to_string e))
  done;
  (* structural truncations: drop each top-level field, then null each
     one — every mutilation must come back as [Error], never a raise *)
  let kvs =
    match ck with
    | Report.Json.Obj kvs -> kvs
    | _ -> Alcotest.fail "checkpoint is not an object"
  in
  List.iter
    (fun (victim, _) ->
      let dropped =
        Report.Json.Obj (List.filter (fun (k, _) -> k <> victim) kvs)
      in
      let nulled =
        Report.Json.Obj
          (List.map
             (fun (k, v) ->
               if k = victim then (k, Report.Json.Null) else (k, v))
             kvs)
      in
      List.iter
        (fun (label, json) ->
          match hardening_restore fixture json with
          | Ok _ -> Alcotest.failf "checkpoint without %S accepted (%s)" victim label
          | Error _ -> ()
          | exception e ->
              Alcotest.failf "restore raised on %s %S: %s" label victim
                (Printexc.to_string e))
        [ ("dropped", dropped); ("nulled", nulled) ])
    kvs;
  (* the same for each field of one result entry: an entry without its
     report or its archive calls is refused, never read as 0 *)
  let entry_kvs =
    match List.assoc_opt "results" kvs with
    | Some (Report.Json.List (Report.Json.Obj e :: _)) -> e
    | _ -> Alcotest.fail "checkpoint has no result entry"
  in
  check_b "an entry is a report and its archive calls" true
    (List.map fst entry_kvs = [ "report"; "api_calls" ]);
  let with_first_entry entry =
    Report.Json.Obj
      (List.map
         (fun (k, v) ->
           match (k, v) with
           | "results", Report.Json.List (_ :: rest) ->
               (k, Report.Json.List (entry :: rest))
           | _ -> (k, v))
         kvs)
  in
  List.iter
    (fun (victim, _) ->
      List.iter
        (fun (label, entry) ->
          match hardening_restore fixture (with_first_entry entry) with
          | Ok _ ->
              Alcotest.failf "result entry without %S accepted (%s)" victim
                label
          | Error _ -> ()
          | exception e ->
              Alcotest.failf "restore raised on entry %s %S: %s" label victim
                (Printexc.to_string e))
        [
          ( "dropped",
            Report.Json.Obj (List.filter (fun (k, _) -> k <> victim) entry_kvs)
          );
          ( "nulled",
            Report.Json.Obj
              (List.map
                 (fun (k, v) ->
                   if k = victim then (k, Report.Json.Null) else (k, v))
                 entry_kvs) );
        ])
    entry_kvs;
  (* the full text still round-trips *)
  (match Report.Json.parse text with
  | Error e -> Alcotest.failf "valid checkpoint failed to parse: %s" e
  | Ok json -> (
      match hardening_restore fixture json with
      | Ok t ->
          check_i "pending restored" 2 (Proxion.Analyzer.pending t);
          check_i "dead letter restored" 1
            (List.length (Proxion.Analyzer.skipped t));
          check_s "re-checkpoint is byte-identical" text
            (Report.Json.to_string
               (Proxion.Analyzer.checkpoint ~landscape:hardening_landscape t))
      | Error e -> Alcotest.failf "valid checkpoint rejected: %s" e))

let test_of_json_corruption_sweep () =
  let fixture = hardening_fixture () in
  let text = Report.Json.to_string (hardening_checkpoint fixture) in
  let sweep replacement =
    for i = 0 to String.length text - 1 do
      if text.[i] <> replacement then begin
        let b = Bytes.of_string text in
        Bytes.set b i replacement;
        match Report.Json.parse (Bytes.to_string b) with
        | Error _ -> ()
        | Ok json -> (
            match hardening_restore fixture json with
            | Ok _ | Error _ -> ()
            | exception e ->
                Alcotest.failf "restore raised on '%c' at %d: %s" replacement i
                  (Printexc.to_string e))
      end
    done
  in
  (* a digit swap keeps most numeric fields parseable (type-level damage);
     'X' breaks structure (parser-level damage) *)
  sweep '7';
  sweep 'X';
  (* structurally valid garbage is rejected, never thrown *)
  List.iter
    (fun json ->
      match hardening_restore fixture json with
      | Ok _ -> Alcotest.fail "garbage checkpoint accepted"
      | Error _ -> ()
      | exception e ->
          Alcotest.failf "restore raised on garbage: %s" (Printexc.to_string e))
    [
      Report.Json.Null;
      Report.Json.Int 3;
      Report.Json.Obj [];
      Report.Json.Obj [ ("version", Report.Json.Int 99) ];
      Report.Json.Obj [ ("version", Report.Json.String "3") ];
      Report.Json.List [ Report.Json.Int 1 ];
    ]

(* A scan journal's checkpoint has one version gate, its schema stamp:
   one stamped with schema_version 2 is refused by name. *)
let test_restore_refuses_version_2 () =
  let fixture = hardening_fixture () in
  let ck = hardening_checkpoint fixture in
  check_b "the current schema is not version 2" true
    (Report.Schema.version <> 2);
  let v2 =
    match ck with
    | Report.Json.Obj kvs ->
        Report.Json.Obj
          (List.map
             (fun (k, v) ->
               if k = Report.Schema.version_key then (k, Report.Json.Int 2)
               else (k, v))
             kvs)
    | _ -> Alcotest.fail "checkpoint is not an object"
  in
  (match hardening_restore fixture v2 with
  | Ok _ -> Alcotest.fail "version-2 checkpoint accepted"
  | Error e ->
      check_b "the refusal names the version" true
        (contains ~needle:"unsupported schema_version 2" e));
  check_b "the unaltered checkpoint restores" true
    (Result.is_ok (hardening_restore fixture ck))

(* ------------------------------------------------------------------ *)
(* Full-pipeline crash determinism                                     *)
(* ------------------------------------------------------------------ *)

let crash_gen = { Generate.quick_config with Generate.total = 240; seed = 31 }

let report_string r =
  Report.Json.to_string (Proxion.Serialize.report_to_json r)

let skeleton = function
  | Engine.Stage_finished { stage; subject; _ } ->
      Some (Printf.sprintf "finish %s %s" (Engine.stage_name stage) subject)
  | Engine.Stage_errored { stage; subject; _ } ->
      Some (Printf.sprintf "error %s %s" (Engine.stage_name stage) subject)
  | Engine.Item_skipped { subject; _ } -> Some ("skip " ^ subject)
  | _ -> None

let run_landscape ?(gen = crash_gen)
    ?(config = Proxion.Analysis.Config.default) ?crash_plan ~domains () =
  let land_ = Generate.generate gen in
  let config =
    Proxion.Analysis.Config.(
      config |> with_batch_size 16 |> with_domains domains)
  in
  let t =
    Proxion.Analyzer.create ~config ?crash_plan ~chain:land_.Generate.chain
      ~source:land_.Generate.source_of ()
  in
  let events = ref [] in
  Proxion.Analyzer.subscribe t (fun ev ->
      match skeleton ev with Some s -> events := s :: !events | None -> ());
  Proxion.Analyzer.submit_all t;
  Proxion.Analyzer.run t;
  (t, List.rev !events)

let checkpoint_state t = Report.Json.to_string (Proxion.Analyzer.checkpoint t)

(* Seeded worker kills are a pure function of (seed, subject): the run's
   report, dead-letter list, checkpoint state and event skeleton must be
   identical at any worker count. *)
let test_pipeline_crash_determinism () =
  (* a fresh plan per run: the kill-once set is per-plan state *)
  let plan () = Engine.crash_plan ~seed:chaos_seed ~rate:0.08 () in
  let seq, ev_seq = run_landscape ~crash_plan:(plan ()) ~domains:1 () in
  let par, ev_par =
    run_landscape ~crash_plan:(plan ()) ~domains:domains_under_test ()
  in
  let dead = Proxion.Analyzer.skipped seq in
  check_b "the plan killed workers" true (dead <> []);
  List.iter
    (fun r ->
      check_b "every casualty is worker-crashed" true
        (r.Engine.sk_class = Engine.Worker_crashed))
    dead;
  check_b "crash counter advanced" true
    (Engine.crashes (Proxion.Analyzer.engine seq) > 0);
  check_i "crash count identical across worker counts"
    (Engine.crashes (Proxion.Analyzer.engine seq))
    (Engine.crashes (Proxion.Analyzer.engine par));
  check_s "report byte-identical across worker counts"
    (report_string (Proxion.Analyzer.report seq))
    (report_string (Proxion.Analyzer.report par));
  check_s "checkpoint state byte-identical across worker counts"
    (checkpoint_state seq) (checkpoint_state par);
  check_sl
    (Printf.sprintf "event order identical at %d domains" domains_under_test)
    ev_seq ev_par

(* Each subject is killed at most once, so requeueing the casualties must
   complete the run to the fault-free figures.  Dedup is off: a requeued
   contract completes after its clones, which would flip the dedup-hit
   flags relative to the fault-free ordering. *)
let test_pipeline_crash_requeue_to_fault_free () =
  let no_dedup = Proxion.Analysis.Config.(default |> with_dedup false) in
  let reference, _ = run_landscape ~config:no_dedup ~domains:1 () in
  let ref_report = Proxion.Analyzer.report reference in
  let plan = Engine.crash_plan ~seed:chaos_seed ~rate:0.08 () in
  let crashed, _ =
    run_landscape ~config:no_dedup ~crash_plan:plan ~domains:1 ()
  in
  let dead = Proxion.Analyzer.skipped crashed in
  check_b "the plan produced casualties" true (dead <> []);
  check_i "every casualty requeued" (List.length dead)
    (Proxion.Analyzer.requeue crashed);
  Proxion.Analyzer.run crashed;
  check_i "kill-once: no dead letters after the retry" 0
    (List.length (Proxion.Analyzer.skipped crashed));
  let final = Proxion.Analyzer.report crashed in
  check_s "stats recover to the fault-free figures"
    (Report.Json.to_string
       (Proxion.Serialize.stats_to_json ref_report.Proxion.Analysis.stats))
    (Report.Json.to_string
       (Proxion.Serialize.stats_to_json final.Proxion.Analysis.stats));
  let sorted_contracts r =
    List.sort compare
      (List.map
         (fun c ->
           Report.Json.to_string (Proxion.Serialize.contract_report_to_json c))
         r.Proxion.Analysis.contracts)
  in
  check_sl "per-contract reports recover to the fault-free figures"
    (sorted_contracts ref_report) (sorted_contracts final)

(* ------------------------------------------------------------------ *)
(* Journaled kill-and-resume                                           *)
(* ------------------------------------------------------------------ *)

(* The CLI's crash-safety story, end to end: journal a checkpoint at
   every batch boundary, "die" after [k] commits with a torn write on
   the tail, recover the journal, restore, and finish — the report must
   be byte-identical to the uninterrupted run, with no committed batch
   re-executed. *)
let kill_and_resume ~domains () =
  let reference, _ = run_landscape ~domains:1 () in
  let ref_report = report_string (Proxion.Analyzer.report reference) in
  let total_batches =
    Engine.batches_done (Proxion.Analyzer.engine reference)
  in
  let label = Printf.sprintf "domains %d" domains in
  let land_ = Generate.generate crash_gen in
  let config =
    Proxion.Analysis.Config.(
      default |> with_batch_size 16 |> with_domains domains)
  in
  let t =
    Proxion.Analyzer.create ~config ~chain:land_.Generate.chain
      ~source:land_.Generate.source_of ()
  in
  let path = fresh_path () in
  let j, _ = ok (Journal.open_journal ~fsync:false path) in
  Proxion.Analyzer.subscribe t (function
    | Engine.Batch_finished _ ->
        ok
          (Journal.checkpoint j
             (Report.Json.to_string (Proxion.Analyzer.checkpoint t)))
    | _ -> ());
  Proxion.Analyzer.submit_all t;
  let k = 3 in
  Proxion.Analyzer.run ~max_batches:k t;
  let interrupted_pending = Proxion.Analyzer.pending t in
  Journal.close j;
  (* the kill lands mid-write: garbage after the last commit *)
  append_raw path "R\xff\xff\xff\xfftorn";
  let j2, recovery = ok (Journal.open_journal ~fsync:false path) in
  Journal.close j2;
  check_b (label ^ ": the torn tail was dropped") true
    (recovery.Journal.rec_dropped_bytes > 0);
  check_i (label ^ ": every committed batch retained") k
    recovery.Journal.rec_committed;
  let state =
    match recovery.Journal.rec_state with
    | Some s -> s
    | None -> Alcotest.fail (label ^ ": no recovered state")
  in
  let ck =
    match Report.Json.parse state with
    | Ok json -> json
    | Error e -> Alcotest.failf "%s: recovered state unparseable: %s" label e
  in
  let land2 = Generate.generate crash_gen in
  let resumed =
    match
      Proxion.Analyzer.restore ~domains ~chain:land2.Generate.chain
        ~source:land2.Generate.source_of ck
    with
    | Ok t -> t
    | Error e -> Alcotest.failf "%s: restore failed: %s" label e
  in
  check_i (label ^ ": resume starts after the last committed batch") k
    (Engine.batches_done (Proxion.Analyzer.engine resumed));
  check_i (label ^ ": pending picks up exactly where the kill landed")
    interrupted_pending
    (Proxion.Analyzer.pending resumed);
  Proxion.Analyzer.run resumed;
  check_i (label ^ ": total batches match the uninterrupted run")
    total_batches
    (Engine.batches_done (Proxion.Analyzer.engine resumed));
  check_s (label ^ ": resumed report byte-identical to uninterrupted")
    ref_report
    (report_string (Proxion.Analyzer.report resumed));
  remove path

let test_journal_kill_and_resume_sequential () = kill_and_resume ~domains:1 ()

let test_journal_kill_and_resume_parallel () =
  kill_and_resume ~domains:domains_under_test ()

(* ------------------------------------------------------------------ *)
(* Journal records since the last compaction                           *)
(* ------------------------------------------------------------------ *)

(* A journal of a base and deltas hands back every committed record in
   order; a compaction that stops before its rename leaves them intact,
   and one that completes replaces them with the caller's payload. *)
let test_journal_records_and_compaction () =
  let path = fresh_path () in
  let j, _ = ok (Journal.open_journal ~fsync:false path) in
  List.iter (fun p -> ok (Journal.checkpoint j p)) [ "base"; "d1"; "d2" ];
  ok (Journal.append j "uncommitted");
  Journal.close j;
  let before = read_file path in
  (* The kill lands after the temporary file got half of its bytes. *)
  let tmp = path ^ ".tmp" in
  write_file tmp (String.sub before 0 (String.length before / 2));
  let j2, r = ok (Journal.open_journal ~fsync:false path) in
  check_sl "every committed record, oldest first" [ "base"; "d1"; "d2" ]
    r.Journal.rec_records;
  check_b "the newest record is the state" true
    (r.Journal.rec_state = Some "d2");
  check_i "three committed records" 3 r.Journal.rec_committed;
  check_b "a journal under its threshold is not due for compaction" false
    (Journal.compaction_due j2);
  ok (Journal.compact j2 "base-2");
  check_b "compaction replaced the stale temporary file" false
    (Sys.file_exists tmp);
  ok (Journal.append j2 "d3");
  ok (Journal.commit j2);
  Journal.close j2;
  let j3, r3 = ok (Journal.open_journal ~fsync:false path) in
  Journal.close j3;
  check_sl "the compacted base, then what followed it" [ "base-2"; "d3" ]
    r3.Journal.rec_records;
  remove path

(* ------------------------------------------------------------------ *)
(* Landscape fingerprints                                              *)
(* ------------------------------------------------------------------ *)

(* A scan journal written over one landscape is refused over another:
   stopped after three batches on [crash_gen], then resumed with a
   different population and seed, as [scan -n 500 --seed 9] would. *)
let test_scan_journal_refuses_other_landscape () =
  let land_ = Generate.generate crash_gen in
  let landscape = Generate.fingerprint land_ in
  let t =
    Proxion.Analyzer.create
      ~config:Proxion.Analysis.Config.(default |> with_batch_size 16)
      ~chain:land_.Generate.chain ~source:land_.Generate.source_of ()
  in
  let path = fresh_path () in
  let j, _ = ok (Journal.open_journal ~fsync:false path) in
  Proxion.Analyzer.subscribe t (function
    | Engine.Batch_finished _ ->
        ok
          (Journal.checkpoint j
             (Report.Json.to_string (Proxion.Analyzer.checkpoint ~landscape t)))
    | _ -> ());
  Proxion.Analyzer.submit_all t;
  Proxion.Analyzer.run ~max_batches:3 t;
  Journal.close j;
  let j2, r = ok (Journal.open_journal ~fsync:false path) in
  Journal.close j2;
  let ck =
    match Option.map Report.Json.parse r.Journal.rec_state with
    | Some (Ok json) -> json
    | _ -> Alcotest.fail "no recovered checkpoint"
  in
  let other =
    Generate.generate { crash_gen with Generate.total = 300; seed = 9 }
  in
  let other_fp = Generate.fingerprint other in
  check_b "the landscapes differ" true (other_fp <> landscape);
  (match
     Proxion.Analyzer.restore ~landscape:other_fp ~chain:other.Generate.chain
       ~source:other.Generate.source_of ck
   with
  | Ok _ -> Alcotest.fail "a checkpoint from another landscape was resumed"
  | Error e ->
      check_b "the error names the journal's fingerprint" true
        (contains ~needle:landscape e);
      check_b "the error names this landscape's fingerprint" true
        (contains ~needle:other_fp e));
  let again = Generate.generate crash_gen in
  check_s "regeneration keeps the fingerprint" landscape
    (Generate.fingerprint again);
  (match
     Proxion.Analyzer.restore ~landscape ~chain:again.Generate.chain
       ~source:again.Generate.source_of ck
   with
  | Ok resumed ->
      check_i "the same landscape resumes after batch 3" 3
        (Engine.batches_done (Proxion.Analyzer.engine resumed))
  | Error e -> Alcotest.failf "same-landscape resume refused: %s" e);
  remove path

(* ------------------------------------------------------------------ *)
(* Daemon journal: a base snapshot and per-advance deltas              *)
(* ------------------------------------------------------------------ *)

module Daemon = Serve.Daemon
module Advance = Serve.Advance

let delta_gen = { Generate.quick_config with Generate.total = 120; seed = 33 }

(* Seeded reorgs of up to 30 blocks.  With advance seed 22 the third
   advance rolls 25 blocks back, orphaning nine deployments of the first
   two, and re-mines only five of those addresses: the other four stay
   removed, so the delta's removals are what keeps them out of the
   recovered store. *)
let delta_config path =
  Serve.Config.(
    default |> with_workers 1
    |> with_analysis
         Proxion.Analysis.Config.(
           default |> with_batch_size 16 |> with_domains 1)
    |> with_advance_seed 22
    |> with_advance_spec
         { Advance.deployments = 3; upgrades = 2; reorg_depth = 30 }
    |> with_journal (Some path)
    |> with_journal_fsync false)

let store_report d =
  Report.Json.to_string
    (Proxion.Serialize.report_to_json
       (Serve.Store.report (Daemon.store d)
          ~unique_codes:(Daemon.unique_codes d)))

let create_daemon config =
  Daemon.create ~config (Generate.generate delta_gen)

(* Where each frame of a journal file ends, after the 9-byte header. *)
let frame_ends data =
  let rec go pos acc =
    if pos + 9 > String.length data then List.rev acc
    else
      let next =
        pos + 9 + Int32.to_int (String.get_int32_be data (pos + 1))
      in
      go next (next :: acc)
  in
  go 9 []

(* Cut a daemon journal holding a base and three deltas (one carrying a
   reorg's removals) at every frame boundary and one byte either side,
   as a SIGKILL could leave it, and recover each prefix on a freshly
   generated landscape: the recovered store must equal the live store as
   of the last whole commit, and a gap in the advance index is refused. *)
let test_daemon_delta_journal_sweep () =
  let path = fresh_path () in
  let d =
    match create_daemon (delta_config path) with
    | Ok d -> d
    | Error e -> Alcotest.failf "daemon create failed: %s" e
  in
  let size () = (Unix.stat path).Unix.st_size in
  (* (journal size once committed, advances, live report) per commit *)
  let commits = ref [ (size (), 0, store_report d) ] in
  (* Orphans the fork did not re-mine at the same address. *)
  let removed_for_good = ref 0 in
  for i = 1 to 3 do
    let r = Daemon.advance d in
    let s = r.Daemon.adv_summary in
    (match s.Advance.a_reorg with
    | Some rg ->
        removed_for_good :=
          !removed_for_good
          + List.length
              (List.filter
                 (fun a -> not (List.mem a s.Advance.a_new_contracts))
                 rg.Advance.rg_orphaned)
    | None -> ());
    commits := (size (), i, store_report d) :: !commits
  done;
  Daemon.stop d;
  let commits = List.rev !commits in
  check_b "a reorg removed entries no deployment replaced" true
    (!removed_for_good > 0);
  let data = read_file path in
  let ends = frame_ends data in
  check_i "a base and three deltas, each a record and a commit" 8
    (List.length ends);
  check_sl "every commit ends on a frame boundary"
    (List.map (fun (s, _, _) -> string_of_int s) commits)
    (List.filteri (fun i _ -> i mod 2 = 1) ends |> List.map string_of_int);
  let cuts =
    List.concat_map (fun e -> [ e - 1; e; e + 1 ]) (9 :: ends)
    |> List.filter (fun c -> c >= 0 && c <= String.length data)
    |> List.sort_uniq compare
  in
  let scratch = fresh_path () in
  List.iter
    (fun cut ->
      remove scratch;
      write_file scratch (String.sub data 0 cut);
      let expected =
        List.fold_left
          (fun acc (s, i, rep) -> if s <= cut then Some (i, rep) else acc)
          None commits
      in
      match create_daemon (delta_config scratch) with
      | Error e ->
          check_b
            (Printf.sprintf "cut %d: only a torn header is refused (%s)" cut e)
            true (cut < 9)
      | Ok r ->
          let index, rep =
            match expected with
            | Some x -> x
            | None ->
                (* Nothing committed survives: a cold start, whose store
                   is the base's. *)
                let _, _, rep = List.hd commits in
                (0, rep)
          in
          check_b
            (Printf.sprintf "cut %d: warm exactly when a commit survives" cut)
            (expected <> None) (Daemon.recovered r);
          check_i
            (Printf.sprintf "cut %d: advances of the last whole commit" cut)
            index (Daemon.advances_applied r);
          check_s
            (Printf.sprintf "cut %d: store of the last whole commit" cut)
            rep (store_report r);
          Daemon.stop r)
    cuts;
  (* A compaction that stops before its rename leaves a torn temporary
     file beside the journal: recovery reads the journal alone, and the
     recovered daemon keeps committing deltas. *)
  remove scratch;
  write_file scratch data;
  write_file (scratch ^ ".tmp") (String.sub data 0 (List.hd ends / 2));
  (match create_daemon (delta_config scratch) with
  | Error e -> Alcotest.failf "recovery beside a torn compaction: %s" e
  | Ok r ->
      let _, _, rep = List.nth commits 3 in
      check_s "a torn compaction leaves the last commit" rep (store_report r);
      ignore (Daemon.advance r);
      let live = store_report r in
      Daemon.stop r;
      (match create_daemon (delta_config scratch) with
      | Error e -> Alcotest.failf "recovery after a fourth delta: %s" e
      | Ok r2 ->
          check_i "four advances recovered" 4 (Daemon.advances_applied r2);
          check_s "the fourth delta folds onto the rest" live (store_report r2);
          Daemon.stop r2));
  remove (scratch ^ ".tmp");
  (* Drop the second delta: the third no longer follows the first. *)
  let records =
    let j, r = ok (Journal.open_journal ~fsync:false path) in
    Journal.close j;
    r.Journal.rec_records
  in
  check_i "four records: the base and three deltas" 4 (List.length records);
  remove scratch;
  let j, _ = ok (Journal.open_journal ~fsync:false scratch) in
  List.iteri (fun i p -> if i <> 2 then ok (Journal.checkpoint j p)) records;
  Journal.close j;
  (match create_daemon (delta_config scratch) with
  | Ok _ -> Alcotest.fail "a journal with a gap in its deltas was accepted"
  | Error e ->
      check_b ("the gap is named: " ^ e) true (contains ~needle:"gap" e));
  remove scratch;
  remove path

let suite =
  [
    Alcotest.test_case "journal creates, commits and reopens" `Quick
      test_journal_create_and_reopen;
    Alcotest.test_case "journal header records the durability mode" `Quick
      test_journal_header_records_durability;
    Alcotest.test_case "journal drops uncommitted and torn tails" `Quick
      test_journal_uncommitted_tail_dropped;
    Alcotest.test_case "journal recovers every torn prefix to a commit" `Quick
      test_journal_torn_tail_sweep;
    Alcotest.test_case "journal survives single-byte corruption anywhere"
      `Quick test_journal_corruption_sweep;
    Alcotest.test_case "journal compaction preserves state atomically" `Quick
      test_journal_compaction;
    Alcotest.test_case "journal auto-compacts past the size threshold" `Quick
      test_journal_auto_compaction;
    Alcotest.test_case "journal rejects foreign files cleanly" `Quick
      test_journal_rejects_foreign_files;
    Alcotest.test_case "fuel watchdog halts runaway emulation" `Quick
      test_watchdog_fuel_exhaustion;
    Alcotest.test_case "supervisor demotes injected kills to dead letters"
      `Quick test_engine_worker_crash_supervision;
    Alcotest.test_case "worker kills are schedule-independent" `Quick
      test_engine_crash_schedule_independence;
    Alcotest.test_case "supervisor survives a real stack overflow" `Quick
      test_engine_stack_overflow_supervision;
    Alcotest.test_case "of_json never raises on truncated checkpoints" `Quick
      test_of_json_truncation_sweep;
    Alcotest.test_case "of_json never raises on corrupted checkpoints" `Quick
      test_of_json_corruption_sweep;
    Alcotest.test_case "restore refuses version-2 checkpoints" `Quick
      test_restore_refuses_version_2;
    Alcotest.test_case "pipeline crash runs are worker-count independent"
      `Quick test_pipeline_crash_determinism;
    Alcotest.test_case "pipeline crash requeue recovers fault-free figures"
      `Quick test_pipeline_crash_requeue_to_fault_free;
    Alcotest.test_case "journaled kill-and-resume is byte-identical (seq)"
      `Quick test_journal_kill_and_resume_sequential;
    Alcotest.test_case "journaled kill-and-resume is byte-identical (par)"
      `Quick test_journal_kill_and_resume_parallel;
    Alcotest.test_case "journal returns every record since compaction" `Quick
      test_journal_records_and_compaction;
    Alcotest.test_case "scan journal refuses another landscape" `Quick
      test_scan_journal_refuses_other_landscape;
    Alcotest.test_case "daemon delta journal recovers every frame cut" `Quick
      test_daemon_delta_journal_sweep;
  ]
