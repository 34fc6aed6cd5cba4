module Generate = Dataset.Generate
module Analysis = Proxion.Analysis
module Address = Evm.Address

type t = {
  mutable sc_batches : int;
  mutable sc_drained : int;
  mutable sc_evicted : int;
  mutable sc_pinned : int;
  mutable sc_gt_proxies : int;
  mutable sc_gt_hidden : int;
  mutable sc_analyzed : int;
  mutable sc_detected_proxies : int;
  mutable sc_detected_hidden : int;
  mutable sc_pairs : int;
  mutable sc_func_colliding : int;
  mutable sc_storage_colliding : int;
  mutable sc_honeypots : int;
  mutable sc_dedup_hits : int;
  mutable sc_skipped : int;
}

let create () =
  {
    sc_batches = 0;
    sc_drained = 0;
    sc_evicted = 0;
    sc_pinned = 0;
    sc_gt_proxies = 0;
    sc_gt_hidden = 0;
    sc_analyzed = 0;
    sc_detected_proxies = 0;
    sc_detected_hidden = 0;
    sc_pairs = 0;
    sc_func_colliding = 0;
    sc_storage_colliding = 0;
    sc_honeypots = 0;
    sc_dedup_hits = 0;
    sc_skipped = 0;
  }

let absorb t (specs : Generate.spec array)
    (reports : Analysis.contract_report list) =
  t.sc_batches <- t.sc_batches + 1;
  t.sc_drained <- t.sc_drained + Array.length specs;
  let by_addr = Hashtbl.create (2 * Array.length specs) in
  Array.iter
    (fun sp ->
      let l = sp.Generate.sp_label in
      Hashtbl.replace by_addr l.Generate.l_address l;
      if sp.Generate.sp_pinned then t.sc_pinned <- t.sc_pinned + 1;
      if l.Generate.l_is_proxy then begin
        t.sc_gt_proxies <- t.sc_gt_proxies + 1;
        if (not l.Generate.l_has_source) && not l.Generate.l_has_tx then
          t.sc_gt_hidden <- t.sc_gt_hidden + 1
      end)
    specs;
  List.iter
    (fun (r : Analysis.contract_report) ->
      t.sc_analyzed <- t.sc_analyzed + 1;
      if r.Analysis.r_dedup_hit then t.sc_dedup_hits <- t.sc_dedup_hits + 1;
      if Analysis.is_proxy_report r then begin
        t.sc_detected_proxies <- t.sc_detected_proxies + 1;
        (match Hashtbl.find_opt by_addr r.Analysis.r_address with
        | Some l
          when (not l.Generate.l_has_source) && not l.Generate.l_has_tx ->
            t.sc_detected_hidden <- t.sc_detected_hidden + 1
        | _ -> ())
      end;
      List.iter
        (fun (p : Analysis.pair_report) ->
          t.sc_pairs <- t.sc_pairs + 1;
          if p.Analysis.p_func_collisions <> [] then
            t.sc_func_colliding <- t.sc_func_colliding + 1;
          if p.Analysis.p_storage_collisions <> [] then
            t.sc_storage_colliding <- t.sc_storage_colliding + 1;
          if p.Analysis.p_honeypot then t.sc_honeypots <- t.sc_honeypots + 1)
        r.Analysis.r_pairs)
    reports

let note_evicted t n = t.sc_evicted <- t.sc_evicted + n
let note_skipped t n = t.sc_skipped <- t.sc_skipped + n

let rows t =
  [
    ("contracts streamed", t.sc_drained);
    ("batches", t.sc_batches);
    ("contracts analyzed", t.sc_analyzed);
    ("skipped (dead letters)", t.sc_skipped);
    ("ground-truth proxies", t.sc_gt_proxies);
    ("ground-truth hidden proxies", t.sc_gt_hidden);
    ("detected proxies", t.sc_detected_proxies);
    ("detected hidden proxies", t.sc_detected_hidden);
    ("proxy/logic pairs", t.sc_pairs);
    ("function-colliding pairs", t.sc_func_colliding);
    ("storage-colliding pairs", t.sc_storage_colliding);
    ("honeypot pairs", t.sc_honeypots);
    ("dedup hits", t.sc_dedup_hits);
    ("evicted after analysis", t.sc_evicted);
    ("pinned (resident)", t.sc_pinned);
  ]

let summary t =
  Report.table ~title:"Streamed scan summary"
    ~header:[ "Metric"; "Value" ]
    (List.map (fun (k, v) -> [ k; string_of_int v ]) (rows t))

(* Peak resident set size self-report: VmHWM from /proc/self/status.
   Linux-only by construction; callers treat [None] as "unsupported". *)
let peak_rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              String.sub line 6 (String.length line - 6)
              |> String.trim
              |> String.split_on_char ' '
              |> fun parts -> int_of_string_opt (List.hd parts)
            else scan ()
      in
      let r = scan () in
      close_in ic;
      r
