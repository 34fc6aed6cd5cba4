(* Validate a Prometheus text exposition file (as written by
   `proxion scan --metrics-out` or the daemon's `metrics` method):
   name syntax, TYPE coverage, duplicate series, histogram bucket
   consistency, and `# EXEMPLAR` comment lines (name/labels must
   re-parse, the id must be 16 lowercase hex, the family must be a
   declared histogram).

   Usage: promlint [--require-exemplars] FILE...   (or `-` for stdin)
   --require-exemplars additionally fails a file carrying no valid
   exemplar line (used by CI's telemetry smoke, where a traced run must
   have recorded at least one max-latency trace_id).
   Exit 0 when every file is clean, 1 otherwise. *)

let count_exemplars text =
  String.split_on_char '\n' text
  |> List.filter (fun line ->
         String.length line > 11 && String.sub line 0 11 = "# EXEMPLAR ")
  |> List.length

let lint_one ~require_exemplars path =
  let text =
    if path = "-" then In_channel.input_all In_channel.stdin
    else In_channel.with_open_text path In_channel.input_all
  in
  match Obs.Metrics.lint text with
  | Ok () ->
      let n = count_exemplars text in
      if require_exemplars && n = 0 then begin
        Printf.printf "%s: no exemplar lines (--require-exemplars)\n" path;
        false
      end
      else begin
        if n > 0 then Printf.printf "%s: OK (%d exemplars)\n" path n
        else Printf.printf "%s: OK\n" path;
        true
      end
  | Error problems ->
      List.iter (fun p -> Printf.printf "%s: %s\n" path p) problems;
      false

let () =
  let args =
    match Array.to_list Sys.argv with
    | _ :: rest -> rest
    | [] -> []
  in
  let require_exemplars = List.mem "--require-exemplars" args in
  let files = List.filter (fun a -> a <> "--require-exemplars") args in
  if files = [] then begin
    prerr_endline
      "usage: promlint [--require-exemplars] FILE... (use - for stdin)";
    exit 2
  end;
  let ok =
    List.fold_left
      (fun acc path ->
        match lint_one ~require_exemplars path with
        | clean -> acc && clean
        | exception Sys_error e ->
            Printf.eprintf "promlint: %s\n" e;
            false)
      true files
  in
  exit (if ok then 0 else 1)
