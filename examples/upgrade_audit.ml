(* Upgrade audit — who can repoint your proxy?

   Salehi et al. (paper 9.1) ask who owns the upgradeability of each proxy.
   This example generates a small landscape (which deliberately contains a
   few proxies whose setLogic forgot the owner check), runs ProxioN's
   detection, and then fires the Upgrade_auth analysis at every detected
   proxy: an unprivileged probe account tries every dispatcher selector
   inside a snapshot and reports the proxies it could repoint.

   Run with: dune exec examples/upgrade_audit.exe [-- TOTAL] *)

let () =
  let total =
    if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 1_500
  in
  let config =
    { Dataset.Generate.quick_config with Dataset.Generate.total; seed = 7 }
  in
  Printf.printf "generating a %d-contract landscape...\n%!" total;
  let land_ = Dataset.Generate.generate config in
  let chain = land_.Dataset.Generate.chain in
  (* Plant one deliberately mis-implemented proxy so the audit always has
     something to find (the generator also produces them at random). *)
  let planted_logic =
    Chain.install_contract chain
      ~runtime:(Minisol.Codegen.runtime (Minisol.Patterns.counter_logic ()))
      ()
  in
  let open_ast =
    Minisol.Ast.contract "CarelessProxy"
      ~vars:
        [
          { Minisol.Ast.v_name = "owner"; v_ty = Minisol.Ast.T_address };
          { Minisol.Ast.v_name = "logic"; v_ty = Minisol.Ast.T_address };
        ]
      ~funcs:
        [
          Minisol.Ast.func "setLogic"
            ~params:[ { Minisol.Ast.p_name = "l"; p_ty = Minisol.Ast.T_address } ]
            [ Minisol.Ast.Store ("logic", Minisol.Ast.Param 0) ];
        ]
      ~fallback:
        (Some [ Minisol.Ast.Delegate_forward (Minisol.Ast.To_var "logic") ])
  in
  let planted =
    Chain.install_contract chain ~runtime:(Minisol.Codegen.runtime open_ast) ()
  in
  Chain.set_storage_direct chain planted U256.one
    (Evm.Address.to_u256 planted_logic);
  let report =
    Proxion.Analyzer.analyze ~chain ~source:land_.Dataset.Generate.source_of ()
  in
  Printf.printf "detected %d proxies; auditing upgrade authority...\n\n%!"
    report.Proxion.Analysis.stats.Proxion.Analysis.s_proxies;
  let totals = Hashtbl.create 4 in
  let open_ones = ref [] in
  List.iter
    (fun r ->
      match r.Proxion.Analysis.r_detection.Proxion.Proxy_detect.verdict with
      | Proxion.Proxy_detect.Proxy { source; _ } ->
          let auth =
            Proxion.Upgrade_auth.analyze chain r.Proxion.Analysis.r_address source
          in
          let key = Proxion.Upgrade_auth.to_string auth in
          Hashtbl.replace totals key
            (1 + Option.value ~default:0 (Hashtbl.find_opt totals key));
          (match auth with
          | Proxion.Upgrade_auth.Open_to_anyone sel ->
              open_ones := (r.Proxion.Analysis.r_address, sel) :: !open_ones
          | _ -> ())
      | _ -> ())
    report.Proxion.Analysis.contracts;
  Report.print_table ~title:"Upgrade authority"
    ~header:[ "authority"; "# proxies" ]
    (Hashtbl.fold (fun k v acc -> [ k; string_of_int v ] :: acc) totals []
    |> List.sort compare);
  print_newline ();
  (match !open_ones with
  | [] -> print_endline "no open-to-anyone proxies in this landscape."
  | l ->
      Printf.printf "!! %d prox%s can be repointed by ANYONE:\n" (List.length l)
        (if List.length l = 1 then "y" else "ies");
      List.iter
        (fun (addr, sel) ->
          Printf.printf "  %s  via unprotected selector %s\n"
            (Evm.Address.to_hex addr) (Hexutil.to_hex sel);
          (* Show the offending source when it is "verified". *)
          match
            if Evm.Address.equal addr planted then Some open_ast
            else land_.Dataset.Generate.source_of addr
          with
          | Some ast ->
              print_newline ();
              print_string (Minisol.Pretty.contract ast)
          | None -> ())
        (List.filteri (fun i _ -> i < 2) l);
      print_newline ();
      print_endline
        "(one transaction each away from total takeover: point the logic at \
         an attacker contract and drain through the fallback)")
