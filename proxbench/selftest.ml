(* Tests of the benchmark itself: each checker accepts today's outputs
   on a small landscape and rejects a deliberately corrupted one, and the
   quick mode runs all three workloads end to end.

     selftest.exe --bench PATH --cli PATH *)

open Common
module G = Dataset.Generate
module A = Proxion.Analysis
module PD = Proxion.Proxy_detect
module Address = Evm.Address

let failures = ref 0

let test name f =
  match f () with
  | true -> Printf.printf "ok   %s\n%!" name
  | false ->
      incr failures;
      Printf.printf "FAIL %s\n%!" name
  | exception e ->
      incr failures;
      Printf.printf "FAIL %s: %s\n%!" name (Printexc.to_string e)

(* A small landscape on which the beacon dedup fault shows (three of its
   beacon clones inherit another clone's logic under dedup). *)
let land_ = lazy (G.generate { G.default_config with total = 2_000; seed = 3 })

let analyze config =
  let l = Lazy.force land_ in
  Proxion.Pipeline.analyze ~config ~chain:l.G.chain ~source:l.G.source_of ()

let scan = lazy (analyze Proxion.Pipeline.Config.default)
let emulate = lazy (analyze (Proxion.Pipeline.Config.with_dedup false Proxion.Pipeline.Config.default))
let height () = Chain.height (Lazy.force land_).G.chain
let labels () = (Lazy.force land_).G.labels
let scan_failures r = Check.scan_failures ~labels:(labels ()) ~height:(height ()) r

let label_of addr =
  List.find (fun l -> Address.equal l.G.l_address addr) (labels ())

(* Replace one contract's report, keeping everything else. *)
let patch (r : A.report) addr f =
  {
    r with
    A.contracts =
      List.map
        (fun (c : A.contract_report) -> if Address.equal c.A.r_address addr then f c else c)
        r.A.contracts;
  }

let first_proxy ?(where = fun _ -> true) (r : A.report) =
  List.find (fun c -> A.is_proxy_report c && where c) r.A.contracts

let () =
  test "scan checker accepts emulate's outputs (no failures)" (fun () ->
      scan_failures (Lazy.force emulate) = []);
  test "scan checker fails exactly the beacon clones with an inherited logic"
    (fun () ->
      let fs = scan_failures (Lazy.force scan) in
      let cold = Lazy.force emulate in
      (* The first beacon proxy deployed owns the shared code hash's cache
         entry; every later one whose own logic differs inherits its. *)
      let beacons =
        List.filter (fun l -> l.G.l_kind = G.K_beacon_proxy) (labels ())
      in
      let inheriting =
        match beacons with
        | [] -> 0
        | owner :: rest ->
            List.length
              (List.filter (fun l -> l.G.l_logics <> owner.G.l_logics) rest)
      in
      fs <> []
      && List.length fs = inheriting
      && List.for_all
           (fun (addr, why) ->
             let a = Address.of_hex addr in
             let l = label_of a in
             let served = Check.historical (Option.get (Check.find_report (Lazy.force scan) a)) in
             let fresh = Check.historical (Option.get (Check.find_report cold a)) in
             why = "logic history" && l.G.l_kind = G.K_beacon_proxy
             && served <> fresh
             && List.exists
                  (fun other ->
                    other.G.l_kind = G.K_beacon_proxy
                    && Check.distinct_addresses other.G.l_logics = served)
                  (labels ()))
           fs);
  test "scan checker rejects one flipped proxy verdict" (fun () ->
      let r = Lazy.force emulate in
      let p = first_proxy r in
      let bad =
        patch r p.A.r_address (fun c ->
            {
              c with
              A.r_detection = { c.A.r_detection with PD.verdict = PD.Not_proxy_no_forward };
            })
      in
      scan_failures bad = [ (Address.to_hex p.A.r_address, "proxy verdict") ]);
  test "scan checker rejects one dropped logic" (fun () ->
      let r = Lazy.force emulate in
      let p = first_proxy ~where:(fun c -> Check.historical c <> []) r in
      let bad =
        patch r p.A.r_address (fun c ->
            let res = Option.get c.A.r_resolution in
            {
              c with
              A.r_resolution =
                Some
                  {
                    res with
                    Proxion.Logic_resolve.historical =
                      List.rev (List.tl (List.rev res.Proxion.Logic_resolve.historical));
                  };
            })
      in
      scan_failures bad = [ (Address.to_hex p.A.r_address, "logic history") ]);
  test "scan checker rejects archive calls over Algorithm 1's bound" (fun () ->
      let r = Lazy.force emulate in
      let p = first_proxy ~where:Check.is_slot_proxy r in
      let bad =
        patch r p.A.r_address (fun c ->
            let res = Option.get c.A.r_resolution in
            { c with A.r_resolution = Some { res with Proxion.Logic_resolve.api_calls = 1_000_000 } })
      in
      match scan_failures bad with [ (a, _) ] -> a = Address.to_hex p.A.r_address | _ -> false);
  test "store checker accepts a store equal to the cold run" (fun () ->
      let r = Lazy.force scan in
      Check.store_vs_cold ~store:r ~cold:r = None);
  test "store checker rejects one entry that differs from the cold run" (fun () ->
      let r = Lazy.force scan in
      let p = first_proxy r in
      let bad = patch r p.A.r_address (fun c -> { c with A.r_dedup_hit = not c.A.r_dedup_hit }) in
      Check.store_vs_cold ~store:bad ~cold:r = Some ("entry " ^ Address.to_hex p.A.r_address));
  test "read checker accepts the projection and rejects a changed read" (fun () ->
      let r = Lazy.force scan in
      let p = first_proxy ~where:(fun c -> Check.historical c <> []) r in
      let good = Check.read_projection "logic_history" p in
      let dropped =
        Check.read_projection "logic_history"
          {
            p with
            A.r_resolution =
              Option.map
                (fun res -> { res with Proxion.Logic_resolve.historical = [] })
                p.A.r_resolution;
          }
      in
      Check.read_matches ~cold:r "logic_history" p.A.r_address good
      && not (Check.read_matches ~cold:r "logic_history" p.A.r_address dropped));
  test "journal bytes count compaction rewrites" (fun () ->
      Session.journal_written ~before:100 ~after:160 = 60
      && Session.journal_written ~before:70_000_000 ~after:5_000_027 = 10_000_045);
  test "percentiles need ten samples beyond them" (fun () ->
      let xs = List.init 100 float_of_int in
      percentile xs 0.9 > 89.0
      && match percentile (List.tl xs) 0.9 with _ -> false | exception Invalid_argument _ -> true)

(* --- quick mode, end to end ----------------------------------------------------- *)

let absolute p = if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p

let run_bench ~bench ~cli workload =
  let bench = absolute bench and cli = absolute cli in
  let out = work_path ("selftest-" ^ workload ^ ".out") in
  let cmd =
    Filename.quote_command bench ~stdout:out
      [ "--workload"; workload; "--seed"; "1"; "--seconds"; "1"; "--trace"; "0"; "--cli"; cli; "--quick" ]
  in
  if Sys.command cmd <> 0 then false
  else
    let lines = In_channel.with_open_text out In_channel.input_lines in
    match Report.Json.parse (List.nth lines (List.length lines - 1)) with
    | Ok (Report.Json.Obj kvs) ->
        List.assoc_opt "correct" kvs = Some (Report.Json.Bool true)
        && (match List.assoc_opt "attempted" kvs with Some (Report.Json.Int n) -> n > 0 | _ -> false)
        && (match List.assoc_opt "metrics" kvs with
           | Some (Report.Json.Obj ms) -> List.length ms = 7
           | _ -> false)
    | _ -> false

let () =
  let bench = ref "" and cli = ref "" in
  Arg.parse
    [ ("--bench", Arg.Set_string bench, "bench.exe"); ("--cli", Arg.Set_string cli, "proxion_cli.exe") ]
    ignore "selftest.exe --bench PATH --cli PATH";
  if !bench <> "" then
    List.iter
      (fun w -> test ("quick " ^ w ^ " runs end to end") (fun () -> run_bench ~bench:!bench ~cli:!cli w))
      [ "scan"; "emulate"; "watch" ];
  if !failures > 0 then begin
    Printf.printf "%d failed\n" !failures;
    exit 1
  end
