module Address = Evm.Address

type severity = Critical | High | Medium | Info

let severity_to_string = function
  | Critical -> "CRITICAL"
  | High -> "HIGH"
  | Medium -> "MEDIUM"
  | Info -> "INFO"

let severity_of_string s =
  match String.uppercase_ascii s with
  | "CRITICAL" -> Some Critical
  | "HIGH" -> Some High
  | "MEDIUM" -> Some Medium
  | "INFO" -> Some Info
  | _ -> None

type finding = {
  f_severity : severity;
  f_title : string;
  f_proxy : Address.t;
  f_logic : Address.t;
  f_detail : string;
}

let region_str (r : Storage_collision.region) =
  Printf.sprintf "[offset %d, %d bytes%s%s]" r.Storage_collision.g_offset
    r.Storage_collision.g_width
    (if r.Storage_collision.g_writes then ", written" else "")
    (if r.Storage_collision.g_guards_caller then ", access-control" else "")

let storage_findings (p : Analysis.pair_report) =
  List.map
    (fun (c : Storage_collision.collision) ->
      let detail =
        Printf.sprintf "%s: proxy sees %s, logic sees %s%s"
          (Storage_access.slot_id_to_string c.Storage_collision.slot)
          (region_str c.Storage_collision.proxy_region)
          (region_str c.Storage_collision.logic_region)
          (if c.Storage_collision.verified then
             "; exploit VERIFIED by test transaction"
           else "")
      in
      let severity =
        if c.Storage_collision.verified then Critical
        else if c.Storage_collision.sensitive then Medium
        else Info
      in
      {
        f_severity = severity;
        f_title = "storage collision";
        f_proxy = p.Analysis.p_proxy;
        f_logic = p.Analysis.p_logic;
        f_detail = detail;
      })
    p.Analysis.p_storage_collisions

let func_findings (p : Analysis.pair_report) =
  match p.Analysis.p_func_collisions with
  | [] -> []
  | collisions ->
      let selectors =
        String.concat ", "
          (List.map
             (fun (c : Func_collision.collision) ->
               Hexutil.to_hex c.Func_collision.selector
               ^
               match (c.Func_collision.proxy_signature, c.Func_collision.logic_signature) with
               | Some a, Some b -> Printf.sprintf " (%s vs %s)" a b
               | _ -> "")
             collisions)
      in
      [
        {
          f_severity = (if p.Analysis.p_honeypot then High else Info);
          f_title =
            (if p.Analysis.p_honeypot then "honeypot function collision"
             else "function collision");
          f_proxy = p.Analysis.p_proxy;
          f_logic = p.Analysis.p_logic;
          f_detail =
            Printf.sprintf
              "colliding selector%s %s: calls meant for the logic are captured \
               by the proxy%s"
              (if List.length collisions > 1 then "s" else "")
              selectors
              (if p.Analysis.p_honeypot then
                 "; the logic baits the caller while the proxy moves assets"
               else "");
        };
      ]

let of_report (report : Analysis.report) =
  let all =
    List.concat_map
      (fun r ->
        List.concat_map
          (fun p -> storage_findings p @ func_findings p)
          r.Analysis.r_pairs)
      report.Analysis.contracts
  in
  List.stable_sort (fun a b -> compare a.f_severity b.f_severity) all

let render ?limit findings =
  let shown =
    match limit with
    | Some n -> List.filteri (fun i _ -> i < n) findings
    | None -> findings
  in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "== Findings (%d total%s) ==\n" (List.length findings)
       (match limit with
       | Some n when List.length findings > n -> Printf.sprintf ", first %d" n
       | _ -> ""));
  List.iter
    (fun f ->
      Buffer.add_string buf
        (Printf.sprintf "[%s] %s\n  proxy %s -> logic %s\n  %s\n"
           (severity_to_string f.f_severity)
           f.f_title (Address.to_hex f.f_proxy) (Address.to_hex f.f_logic)
           f.f_detail))
    shown;
  Buffer.contents buf

let to_json findings =
  Report.Json.List
    (List.map
       (fun f ->
         Report.Json.Obj
           [
             ("severity", Report.Json.String (severity_to_string f.f_severity));
             ("title", Report.Json.String f.f_title);
             ("proxy", Report.Json.String (Address.to_hex f.f_proxy));
             ("logic", Report.Json.String (Address.to_hex f.f_logic));
             ("detail", Report.Json.String f.f_detail);
           ])
       findings)
