module Json = Report.Json
module Address = Evm.Address

let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* Decoding helpers                                                    *)
(* ------------------------------------------------------------------ *)

let hex_of_json json =
  match json with
  | Json.String s -> (
      match Hexutil.of_hex_opt s with
      | Some b -> Ok b
      | None -> Error ("bad hex " ^ s))
  | _ -> Error "expected a hex string"

let address_of_json json =
  match hex_of_json json with
  | Ok b when String.length b = 20 -> Ok b
  | Ok _ -> Error "bad address: not 20 bytes"
  | Error e -> Error e

let word_of_json = function
  | Json.String s -> (
      match U256.of_hex s with
      | v -> Ok v
      | exception _ -> Error ("bad word " ^ s))
  | _ -> Error "expected a word string"

let opt to_json = function None -> Json.Null | Some v -> to_json v

(* ------------------------------------------------------------------ *)
(* Proxy detection                                                     *)
(* ------------------------------------------------------------------ *)

let target_source_to_json = function
  | Proxy_detect.Hardcoded -> Json.Obj [ ("kind", Json.String "hardcoded") ]
  | Proxy_detect.Storage_slot slot ->
      Json.Obj
        [
          ("kind", Json.String "storage_slot");
          ("slot", Json.String (U256.to_hex slot));
        ]
  | Proxy_detect.Computed -> Json.Obj [ ("kind", Json.String "computed") ]

let target_source_of_json json =
  let* kind = Json.string "kind" json in
  match kind with
  | "hardcoded" -> Ok Proxy_detect.Hardcoded
  | "storage_slot" ->
      let* slot = Json.field "slot" word_of_json json in
      Ok (Proxy_detect.Storage_slot slot)
  | "computed" -> Ok Proxy_detect.Computed
  | other -> Error ("unknown target source " ^ other)

let verdict_to_json = function
  | Proxy_detect.Not_proxy_no_delegatecall ->
      Json.Obj [ ("kind", Json.String "not_proxy_no_delegatecall") ]
  | Proxy_detect.Not_proxy_no_forward ->
      Json.Obj [ ("kind", Json.String "not_proxy_no_forward") ]
  | Proxy_detect.Emulation_error msg ->
      Json.Obj
        [
          ("kind", Json.String "emulation_error");
          ("message", Json.String msg);
        ]
  | Proxy_detect.Proxy { target; source } ->
      Json.Obj
        [
          ("kind", Json.String "proxy");
          ("target", Json.String (Address.to_hex target));
          ("source", target_source_to_json source);
        ]

let verdict_of_json json =
  let* kind = Json.string "kind" json in
  match kind with
  | "not_proxy_no_delegatecall" -> Ok Proxy_detect.Not_proxy_no_delegatecall
  | "not_proxy_no_forward" -> Ok Proxy_detect.Not_proxy_no_forward
  | "emulation_error" ->
      let* msg = Json.string "message" json in
      Ok (Proxy_detect.Emulation_error msg)
  | "proxy" ->
      let* target = Json.field "target" address_of_json json in
      let* source = Json.field "source" target_source_of_json json in
      Ok (Proxy_detect.Proxy { target; source })
  | other -> Error ("unknown verdict " ^ other)

let detection_to_json (d : Proxy_detect.t) =
  Json.Obj
    [
      ("address", Json.String (Address.to_hex d.Proxy_detect.address));
      ("verdict", verdict_to_json d.Proxy_detect.verdict);
      ( "probe_selector",
        Json.String (Hexutil.to_hex d.Proxy_detect.probe_selector) );
      ("steps", Json.Int d.Proxy_detect.steps);
    ]

let detection_of_json json =
  let* address = Json.field "address" address_of_json json in
  let* verdict = Json.field "verdict" verdict_of_json json in
  let* probe_selector = Json.field "probe_selector" hex_of_json json in
  let* steps = Json.int "steps" json in
  Ok { Proxy_detect.address; verdict; probe_selector; steps }

(* ------------------------------------------------------------------ *)
(* Logic resolution                                                    *)
(* ------------------------------------------------------------------ *)

let resolution_to_json (r : Logic_resolve.resolution) =
  Json.Obj
    [
      ( "current",
        opt (fun a -> Json.String (Address.to_hex a)) r.Logic_resolve.current
      );
      ( "historical",
        Json.List
          (List.map
             (fun a -> Json.String (Address.to_hex a))
             r.Logic_resolve.historical) );
      ("api_calls", Json.Int r.Logic_resolve.api_calls);
      ("upgrade_count", Json.Int r.Logic_resolve.upgrade_count);
    ]

let resolution_of_json json =
  let* current = Json.opt "current" address_of_json json in
  let* historical = Json.list "historical" address_of_json json in
  let* api_calls = Json.int "api_calls" json in
  let* upgrade_count = Json.int "upgrade_count" json in
  Ok { Logic_resolve.current; historical; api_calls; upgrade_count }

(* ------------------------------------------------------------------ *)
(* Collisions                                                          *)
(* ------------------------------------------------------------------ *)

let func_collision_to_json (c : Func_collision.collision) =
  Json.Obj
    [
      ("selector", Json.String (Hexutil.to_hex c.Func_collision.selector));
      ( "proxy_signature",
        opt (fun s -> Json.String s) c.Func_collision.proxy_signature );
      ( "logic_signature",
        opt (fun s -> Json.String s) c.Func_collision.logic_signature );
    ]

let func_collision_of_json json =
  let* selector = Json.field "selector" hex_of_json json in
  let signature = function
    | Json.String s -> Ok s
    | _ -> Error "signature: expected a string"
  in
  let* proxy_signature = Json.opt "proxy_signature" signature json in
  let* logic_signature = Json.opt "logic_signature" signature json in
  Ok { Func_collision.selector; proxy_signature; logic_signature }

let slot_id_to_json = function
  | Storage_access.Fixed slot ->
      Json.Obj
        [
          ("kind", Json.String "fixed");
          ("slot", Json.String (U256.to_hex slot));
        ]
  | Storage_access.Mapping base ->
      Json.Obj
        [
          ("kind", Json.String "mapping");
          ("slot", Json.String (U256.to_hex base));
        ]

let slot_id_of_json json =
  let* kind = Json.string "kind" json in
  let* slot = Json.field "slot" word_of_json json in
  match kind with
  | "fixed" -> Ok (Storage_access.Fixed slot)
  | "mapping" -> Ok (Storage_access.Mapping slot)
  | other -> Error ("unknown slot kind " ^ other)

let region_to_json (r : Storage_collision.region) =
  Json.Obj
    [
      ("offset", Json.Int r.Storage_collision.g_offset);
      ("width", Json.Int r.Storage_collision.g_width);
      ("reads", Json.Bool r.Storage_collision.g_reads);
      ("writes", Json.Bool r.Storage_collision.g_writes);
      ("guards_caller", Json.Bool r.Storage_collision.g_guards_caller);
    ]

let region_of_json json =
  let* g_offset = Json.int "offset" json in
  let* g_width = Json.int "width" json in
  let* g_reads = Json.bool "reads" json in
  let* g_writes = Json.bool "writes" json in
  let* g_guards_caller = Json.bool "guards_caller" json in
  Ok { Storage_collision.g_offset; g_width; g_reads; g_writes; g_guards_caller }

let storage_collision_to_json (c : Storage_collision.collision) =
  Json.Obj
    [
      ("slot", slot_id_to_json c.Storage_collision.slot);
      ("proxy_region", region_to_json c.Storage_collision.proxy_region);
      ("logic_region", region_to_json c.Storage_collision.logic_region);
      ("sensitive", Json.Bool c.Storage_collision.sensitive);
      ("verified", Json.Bool c.Storage_collision.verified);
    ]

let storage_collision_of_json json =
  let* slot = Json.field "slot" slot_id_of_json json in
  let* proxy_region = Json.field "proxy_region" region_of_json json in
  let* logic_region = Json.field "logic_region" region_of_json json in
  let* sensitive = Json.bool "sensitive" json in
  let* verified = Json.bool "verified" json in
  Ok { Storage_collision.slot; proxy_region; logic_region; sensitive; verified }

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)
(* ------------------------------------------------------------------ *)

let method_to_json = function
  | Analysis.Source_source -> Json.String "source_source"
  | Analysis.Mixed -> Json.String "mixed"
  | Analysis.Bytecode_bytecode -> Json.String "bytecode_bytecode"

let method_of_json = function
  | Json.String "source_source" -> Ok Analysis.Source_source
  | Json.String "mixed" -> Ok Analysis.Mixed
  | Json.String "bytecode_bytecode" -> Ok Analysis.Bytecode_bytecode
  | _ -> Error "unknown analysis method"

let standard_to_json = function
  | Standard_classify.Eip1167 -> Json.String "eip1167"
  | Standard_classify.Eip1822 -> Json.String "eip1822"
  | Standard_classify.Eip1967 -> Json.String "eip1967"
  | Standard_classify.Other -> Json.String "other"

let standard_of_json = function
  | Json.String "eip1167" -> Ok Standard_classify.Eip1167
  | Json.String "eip1822" -> Ok Standard_classify.Eip1822
  | Json.String "eip1967" -> Ok Standard_classify.Eip1967
  | Json.String "other" -> Ok Standard_classify.Other
  | _ -> Error "unknown standard"

let pair_report_to_json (p : Analysis.pair_report) =
  Json.Obj
    [
      ("proxy", Json.String (Address.to_hex p.Analysis.p_proxy));
      ("logic", Json.String (Address.to_hex p.Analysis.p_logic));
      ("method", method_to_json p.Analysis.p_method);
      ( "func_collisions",
        Json.List (List.map func_collision_to_json p.Analysis.p_func_collisions)
      );
      ( "storage_collisions",
        Json.List
          (List.map storage_collision_to_json p.Analysis.p_storage_collisions)
      );
      ("honeypot", Json.Bool p.Analysis.p_honeypot);
    ]

let pair_report_of_json json =
  let* p_proxy = Json.field "proxy" address_of_json json in
  let* p_logic = Json.field "logic" address_of_json json in
  let* p_method = Json.field "method" method_of_json json in
  let* p_func_collisions =
    Json.list "func_collisions" func_collision_of_json json
  in
  let* p_storage_collisions =
    Json.list "storage_collisions" storage_collision_of_json json
  in
  let* p_honeypot = Json.bool "honeypot" json in
  Ok
    {
      Analysis.p_proxy;
      p_logic;
      p_method;
      p_func_collisions;
      p_storage_collisions;
      p_honeypot;
    }

let contract_report_to_json (r : Analysis.contract_report) =
  Json.Obj
    [
      ("address", Json.String (Address.to_hex r.Analysis.r_address));
      ("code_hash", Json.String (Hexutil.to_hex r.Analysis.r_code_hash));
      ("detection", detection_to_json r.Analysis.r_detection);
      ("standard", opt standard_to_json r.Analysis.r_standard);
      ("resolution", opt resolution_to_json r.Analysis.r_resolution);
      ("pairs", Json.List (List.map pair_report_to_json r.Analysis.r_pairs));
      ("dedup_hit", Json.Bool r.Analysis.r_dedup_hit);
    ]

let contract_report_of_json json =
  let* r_address = Json.field "address" address_of_json json in
  let* r_code_hash = Json.field "code_hash" hex_of_json json in
  let* r_detection = Json.field "detection" detection_of_json json in
  let* r_standard = Json.opt "standard" standard_of_json json in
  let* r_resolution = Json.opt "resolution" resolution_of_json json in
  let* r_pairs = Json.list "pairs" pair_report_of_json json in
  let* r_dedup_hit = Json.bool "dedup_hit" json in
  Ok
    {
      Analysis.r_address;
      r_code_hash;
      r_detection;
      r_standard;
      r_resolution;
      r_pairs;
      r_dedup_hit;
    }

let stats_to_json (s : Analysis.stats) =
  Json.Obj
    [
      ("analyzed", Json.Int s.Analysis.s_analyzed);
      ("proxies", Json.Int s.Analysis.s_proxies);
      ("emulation_errors", Json.Int s.Analysis.s_emulation_errors);
      ("pairs", Json.Int s.Analysis.s_pairs);
      ("func_colliding_pairs", Json.Int s.Analysis.s_func_colliding_pairs);
      ("storage_colliding_pairs", Json.Int s.Analysis.s_storage_colliding_pairs);
      ("verified_storage_pairs", Json.Int s.Analysis.s_verified_storage_pairs);
      ("honeypot_pairs", Json.Int s.Analysis.s_honeypot_pairs);
      ("dedup_hits", Json.Int s.Analysis.s_dedup_hits);
      ("unique_codes", Json.Int s.Analysis.s_unique_codes);
      ("api_calls", Json.Int s.Analysis.s_api_calls);
      ("emulation_steps", Json.Int s.Analysis.s_emulation_steps);
    ]

let stats_of_json json =
  let* s_analyzed = Json.int "analyzed" json in
  let* s_proxies = Json.int "proxies" json in
  let* s_emulation_errors = Json.int "emulation_errors" json in
  let* s_pairs = Json.int "pairs" json in
  let* s_func_colliding_pairs = Json.int "func_colliding_pairs" json in
  let* s_storage_colliding_pairs = Json.int "storage_colliding_pairs" json in
  let* s_verified_storage_pairs = Json.int "verified_storage_pairs" json in
  let* s_honeypot_pairs = Json.int "honeypot_pairs" json in
  let* s_dedup_hits = Json.int "dedup_hits" json in
  let* s_unique_codes = Json.int "unique_codes" json in
  let* s_api_calls = Json.int "api_calls" json in
  let* s_emulation_steps = Json.int "emulation_steps" json in
  Ok
    {
      Analysis.s_analyzed;
      s_proxies;
      s_emulation_errors;
      s_pairs;
      s_func_colliding_pairs;
      s_storage_colliding_pairs;
      s_verified_storage_pairs;
      s_honeypot_pairs;
      s_dedup_hits;
      s_unique_codes;
      s_api_calls;
      s_emulation_steps;
    }

let report_kind = "proxion.report"

let report_to_json (r : Analysis.report) =
  Report.Schema.stamp ~kind:report_kind
    (Json.Obj
       [
         ( "contracts",
           Json.List (List.map contract_report_to_json r.Analysis.contracts) );
         ("stats", stats_to_json r.Analysis.stats);
       ])

let report_of_json json =
  let* json = Report.Schema.check ~kind:report_kind json in
  let* contracts = Json.list "contracts" contract_report_of_json json in
  let* stats = Json.field "stats" stats_of_json json in
  Ok { Analysis.contracts; stats }
