(* Robustness fuzzing: every analysis entry point must return a value —
   never raise — on arbitrary bytecode.  Mainnet-scale scans meet byte
   soup (constructor arguments, metadata, hand-written assembly), so total
   robustness of the analyzers is a correctness property of its own. *)

let arb_bytecode =
  let open QCheck.Gen in
  let gen =
    oneof
      [
        (* Pure random bytes. *)
        string_size ~gen:char (int_bound 300);
        (* Random bytes guaranteed to contain DELEGATECALL so the
           emulation path actually runs. *)
        map (fun s -> s ^ "\xf4" ^ s) (string_size ~gen:char (int_bound 120));
        (* Valid-ish prefix grafted onto junk. *)
        map
          (fun s -> Hexutil.of_hex "0x6080604052" ^ s)
          (string_size ~gen:char (int_bound 200));
      ]
  in
  QCheck.make ~print:Hexutil.to_hex gen

let total name f =
  QCheck.Test.make ~name ~count:150 arb_bytecode (fun code ->
      match f code with _ -> true | exception _ -> false)

(* Quorum canonicality: whatever per-endpoint fault, lag and Byzantine
   plan a hostile pool draws, a transport with quorum >= 2 either
   returns the node's canonical answer or a structured error — it never
   hands the analysis a fabricated one.  (Quorum >= 2 is the contract:
   a single liar cannot reach agreement because Byzantine corruption is
   a function of the endpoint's identity, so two liars lie apart.) *)
let quorum_canonicality =
  let chain, subject =
    let chain = Chain.create () in
    let a = Chain.install_contract chain ~runtime:"\x00" () in
    for slot = 0 to 7 do
      Chain.set_storage_direct chain a (U256.of_int slot)
        (U256.of_int (100 + slot))
    done;
    Chain.advance_blocks chain 12;
    (chain, a)
  in
  let arb_pool =
    let open QCheck.Gen in
    (* Per endpoint: fault rate in {0, .1 .. .6}, lag in 0..4, and a
       coin for an always-lying Byzantine data plane. *)
    let endpoint_gen = triple (int_bound 6) (int_bound 4) bool in
    let gen = pair nat (list_size (int_range 2 4) endpoint_gen) in
    let print (seed, eps) =
      Printf.sprintf "seed %d, pool [%s]" seed
        (String.concat "; "
           (List.map
              (fun (r, l, b) ->
                Printf.sprintf "rate .%d lag %d byz %b" r l b)
              eps))
    in
    QCheck.make ~print gen
  in
  QCheck.Test.make ~name:"hostile pools never yield a non-canonical answer"
    ~count:60 arb_pool (fun (seed, eps) ->
      let n = List.length eps in
      let quorum = max 2 ((n / 2) + 1) in
      let endpoints =
        List.mapi
          (fun i (rate, lag, byz) ->
            Resilience.Transport.endpoint
              ?plan:
                (if rate > 0 then
                   Some
                     (Resilience.Fault_plan.spec ~seed:(seed + i)
                        ~fault_rate:(float_of_int rate /. 10.0)
                        ())
                 else None)
              ~lag
              ~byzantine:(if byz then 1.0 else 0.0)
              ~byz_seed:(seed lxor i)
              (Printf.sprintf "ep-%d" i))
          eps
      in
      let cfg = Resilience.Transport.config ~endpoints ~quorum () in
      let t = Resilience.Transport.create ~config:cfg ~chain () in
      List.for_all
        (fun slot ->
          let meth = "eth_getStorageAt" in
          let params =
            [ Evm.Address.to_hex subject; Printf.sprintf "0x%x" slot; "latest" ]
          in
          let canonical = Chain_rpc.call chain ~meth ~params in
          match Resilience.Transport.call t (Chain_rpc.request ~meth ~params) with
          | Ok _ as got -> got = canonical
          | Error _ -> true)
        [ 0; 1; 2; 3 ])

(* Trace-field totality: whatever JSON rides in a request's [trace]
   field, the wire parser either adopts a well-formed context (both ids
   16 lowercase hex) or rejects the request with a structured
   invalid-request error — and in-process dispatch of the same payload
   never raises.  The daemon is built once, lazily: the property only
   exercises the parse/dispatch envelope, not the analysis. *)
let fuzz_daemon =
  lazy
    (let land_ =
       Dataset.Generate.generate
         { Dataset.Generate.quick_config with Dataset.Generate.total = 60; seed = 5 }
     in
     match Serve.Daemon.create land_ with
     | Ok d -> d
     | Error e -> failwith ("fuzz daemon: " ^ e))

let trace_field_totality =
  let module Json = Report.Json in
  let open QCheck.Gen in
  let hex_char =
    oneofl
      [ '0'; '1'; '2'; '3'; '4'; '5'; '6'; '7'; '8'; '9'; 'a'; 'b'; 'c'; 'd'; 'e'; 'f' ]
  in
  let id_gen =
    oneof
      [
        string_size ~gen:hex_char (return 16);
        string_size ~gen:hex_char (int_bound 20);
        string_size ~gen:printable (int_bound 20);
      ]
  in
  let rec value_gen n =
    if n <= 0 then
      oneof
        [
          return Json.Null;
          map (fun b -> Json.Bool b) bool;
          map (fun i -> Json.Int i) small_signed_int;
          map (fun s -> Json.String s) id_gen;
        ]
    else
      oneof
        [
          value_gen 0;
          map (fun l -> Json.List l) (list_size (int_bound 3) (value_gen (n - 1)));
          map
            (fun kvs -> Json.Obj kvs)
            (list_size (int_bound 3)
               (pair
                  (oneofl [ "trace_id"; "span_id"; "other" ])
                  (value_gen (n - 1))));
        ]
  in
  let trace_gen =
    oneof
      [
        value_gen 2;
        map2
          (fun a b ->
            Json.Obj
              [ ("trace_id", Json.String a); ("span_id", Json.String b) ])
          id_gen id_gen;
      ]
  in
  let arb = QCheck.make ~print:Json.to_string trace_gen in
  QCheck.Test.make
    ~name:"trace-field totality: parse-or-reject, dispatch never raises"
    ~count:200 arb (fun trace_json ->
      let payload =
        Json.to_string
          (Json.Obj
             [
               ("proxion_rpc", Json.Int Serve.Wire.protocol_version);
               ("id", Json.Int 1);
               ("method", Json.String "get_status");
               ("params", Json.Obj []);
               ("trace", trace_json);
             ])
      in
      let parse_ok =
        match Serve.Wire.request_of_string payload with
        | Ok r -> (
            match r.Serve.Wire.rq_trace with
            | None -> true
            | Some tc ->
                Obs.Trace.id_of_hex tc.Serve.Wire.tc_trace_id <> None
                && Obs.Trace.id_of_hex tc.Serve.Wire.tc_span_id <> None)
        | Error e -> e.Serve.Wire.code = Serve.Wire.err_invalid_request
        | exception _ -> false
      in
      let dispatch_ok =
        match Serve.Daemon.handle (Lazy.force fuzz_daemon) payload with
        | _meth, _response -> true
        | exception _ -> false
      in
      parse_ok && dispatch_ok)

(* Every reply the daemon writes parses.  The request text is assembled
   raw, so it can carry number spellings no [Json.t] prints — a leading
   plus, leading zeros, a bare fraction, an integer beyond 63 bits, a
   float that overflows — in the marker, the id, the params value and a
   param's value.  Whatever the daemon makes of them, its reply must be
   JSON its own parser reads back. *)
let replies_parse =
  let open QCheck.Gen in
  let numbers =
    [
      "1"; "+1"; "007"; ".5"; "1."; "-0"; "1E5"; "1e-3"; "0.5";
      "99999999999999999999"; "-99999999999999999999"; "1e400"; "-1e400";
      "4611686018427387904";
    ]
  in
  let value = oneofl (numbers @ [ "null"; "\"x\""; "[5]"; "{}"; "true" ]) in
  let payload_gen =
    map
      (fun ((marker, id, meth), (params, key, v)) ->
        let params =
          match params with
          | `Value p -> p
          | `Field -> Printf.sprintf "{\"%s\": %s}" key v
        in
        Printf.sprintf
          "{\"proxion_rpc\": %s, \"id\": %s, \"method\": \"%s\", \
           \"params\": %s}"
          marker id meth params)
      (pair
         (triple (oneofl ("1" :: numbers)) value
            (oneofl
               [
                 "get_status"; "health"; "list_findings"; "flight"; "is_proxy";
                 "no_such_method";
               ]))
         (triple
            (oneof [ map (fun p -> `Value p) value; return `Field ])
            (oneofl [ "limit"; "offset"; "address"; "severity" ])
            value))
  in
  QCheck.Test.make ~name:"every reply the daemon writes parses" ~count:300
    (QCheck.make ~print:Fun.id payload_gen) (fun payload ->
      let _meth, reply = Serve.Daemon.handle (Lazy.force fuzz_daemon) payload in
      match Report.Json.parse reply with
      | Ok _ -> true
      | Error e ->
          QCheck.Test.fail_reportf "reply %s does not parse: %s" reply e)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      quorum_canonicality;
      trace_field_totality;
      replies_parse;
      total "disassembler total" Evm.Disasm.disassemble;
      total "basic blocks total" Evm.Disasm.basic_blocks;
      total "cfg build total" (fun c -> Evm.Cfg.build c);
      total "stack check total" Evm.Stack_check.analyze;
      total "proxy detection total" (fun c -> Proxion.Proxy_detect.detect_code c);
      total "naive push4 total" Proxion.Selector_extract.naive_push4;
      total "dispatcher extraction total" Proxion.Selector_extract.dispatcher_selectors;
      total "dispatcher table total" Proxion.Selector_extract.dispatcher_table;
      total "storage profile total" Proxion.Storage_access.profile;
      total "standard classification total" (fun c ->
          Proxion.Standard_classify.classify ~code:c Proxion.Proxy_detect.Hardcoded);
      total "func collision total" (fun c ->
          Proxion.Func_collision.detect
            ~proxy:(Proxion.Func_collision.Bytecode c)
            ~logic:(Proxion.Func_collision.Bytecode c));
      total "storage collision total" (fun c ->
          Proxion.Storage_collision.detect
            ~proxy:(Proxion.Storage_collision.Bytecode c)
            ~logic:(Proxion.Storage_collision.Bytecode c));
      total "honeypot classifier total" (fun c ->
          Proxion.Honeypot.classify
            ~proxy:(Proxion.Func_collision.Bytecode c)
            ~logic:(Proxion.Func_collision.Bytecode c));
      (* The wire parsers face the same byte soup over TCP: any input
         must come back as a structured error, never an exception. *)
      total "wire request parse total" Serve.Wire.request_of_string;
      total "wire response parse total" Serve.Wire.response_of_string;
      total "raw interpretation total" (fun c ->
          let host = Evm.Host.in_memory () in
          let addr = Evm.Address.of_hex "0x00000000000000000000000000000000000fe221" in
          Evm.Host.with_code host addr c;
          Evm.Interp.execute ~step_limit:20_000 host
            (Evm.Interp.make_call
               ~caller:(Evm.Address.of_hex "0x00000000000000000000000000000000000fe222")
               ~target:addr ~input:"\x01\x02\x03" ()));
    ]
