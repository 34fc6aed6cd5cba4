module Analysis = Proxion.Analysis
module Address = Evm.Address
module Json = Report.Json

type entry = {
  e_report : Analysis.contract_report;
  e_api_calls : int;
  e_steps : int;
}

type t = {
  lock : Mutex.t;
  tbl : (Address.t, entry) Hashtbl.t;
  mutable order_rev : Address.t list;  (* deployment order, newest first *)
  mutable generation : int;
  mutable report_cache : (int * Analysis.report) option;
      (* keyed by the unique_codes it was computed with *)
  mutable findings_cache : (int * Proxion.Findings.finding list) option;
}

let create () =
  {
    lock = Mutex.create ();
    tbl = Hashtbl.create 1024;
    order_rev = [];
    generation = 0;
    report_cache = None;
    findings_cache = None;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let size t = locked t (fun () -> Hashtbl.length t.tbl)
let generation t = locked t (fun () -> t.generation)
let bump_generation t = locked t (fun () -> t.generation <- t.generation + 1)
let set_generation t g = locked t (fun () -> t.generation <- g)
let find t addr = locked t (fun () -> Hashtbl.find_opt t.tbl addr)
let mem t addr = locked t (fun () -> Hashtbl.mem t.tbl addr)

let upsert t entry =
  locked t (fun () ->
      let addr = entry.e_report.Analysis.r_address in
      if not (Hashtbl.mem t.tbl addr) then t.order_rev <- addr :: t.order_rev;
      Hashtbl.replace t.tbl addr entry;
      t.report_cache <- None;
      t.findings_cache <- None)

let remove t addr =
  locked t (fun () ->
      if Hashtbl.mem t.tbl addr then begin
        Hashtbl.remove t.tbl addr;
        t.order_rev <-
          List.filter (fun a -> not (Address.equal a addr)) t.order_rev;
        t.report_cache <- None;
        t.findings_cache <- None;
        true
      end
      else false)

let entries_locked t =
  List.rev_map (fun addr -> Hashtbl.find t.tbl addr) t.order_rev

let reports t =
  locked t (fun () -> List.map (fun e -> e.e_report) (entries_locked t))

let entries t = locked t (fun () -> entries_locked t)

let report_locked t ~unique_codes =
  match t.report_cache with
  | Some (uc, r) when uc = unique_codes -> r
  | _ ->
      let entries = entries_locked t in
      let contracts = List.map (fun e -> e.e_report) entries in
      let dedup_hits =
        List.length
          (List.filter (fun e -> e.e_report.Analysis.r_dedup_hit) entries)
      in
      let api_calls =
        List.fold_left (fun acc e -> acc + e.e_api_calls) 0 entries
      in
      let emulation_steps =
        List.fold_left (fun acc e -> acc + e.e_steps) 0 entries
      in
      let stats =
        Analysis.compute_stats ~dedup_hits ~unique_codes ~api_calls
          ~emulation_steps contracts
      in
      let r = { Analysis.contracts; stats } in
      t.report_cache <- Some (unique_codes, r);
      r

let report t ~unique_codes = locked t (fun () -> report_locked t ~unique_codes)

let findings t ~unique_codes =
  locked t (fun () ->
      match t.findings_cache with
      | Some (uc, fs) when uc = unique_codes -> fs
      | _ ->
          let fs = Proxion.Findings.of_report (report_locked t ~unique_codes) in
          t.findings_cache <- Some (unique_codes, fs);
          fs)

(* ------------------------------------------------------------------ *)
(* Snapshots                                                            *)
(* ------------------------------------------------------------------ *)

let entry_to_json e =
  Json.Obj
    [
      ("report", Proxion.Serialize.contract_report_to_json e.e_report);
      ("api_calls", Json.Int e.e_api_calls);
      ("steps", Json.Int e.e_steps);
    ]

let ( let* ) = Result.bind

let entry_of_json json =
  let* e_report =
    Json.field "report" Proxion.Serialize.contract_report_of_json json
  in
  let* e_api_calls = Json.int "api_calls" json in
  let* e_steps = Json.int "steps" json in
  Ok { e_report; e_api_calls; e_steps }
