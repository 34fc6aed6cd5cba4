module Json = Report.Json

type kind = Counter | Gauge | Histogram of float array

type family = {
  f_name : string;
  f_help : string;
  f_kind : kind;
  f_volatile : bool;
}

(* One series: [sr_value] is the counter total, the gauge value, or the
   histogram sum; [sr_count] and [sr_buckets] (finite buckets plus one
   +Inf slot) are histogram-only.  [sr_ex_*] hold the exemplar — the
   identity (a trace_id) of the max-value observation so far; [sr_ex_id]
   empty means none recorded. *)
type series = {
  mutable sr_value : float;
  mutable sr_count : float;
  sr_buckets : float array;
  mutable sr_ex_value : float;
  mutable sr_ex_id : string;
}

type key = string * (string * string) list

(* One lock guards both tables: registrations, lookups, observations
   and snapshots all take [lock], and only it. *)
type t = {
  specs : (string, family) Hashtbl.t;
  series : (key, series) Hashtbl.t;
  lock : Mutex.t;
}

let create () =
  { specs = Hashtbl.create 32; series = Hashtbl.create 64; lock = Mutex.create () }

(* ------------------------------------------------------------------ *)
(* Name validation (Prometheus data model)                             *)
(* ------------------------------------------------------------------ *)

let is_metric_name s =
  s <> ""
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false)
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
         | _ -> false)
       s

let is_label_name s =
  s <> ""
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       s

(* ------------------------------------------------------------------ *)
(* Registration                                                        *)
(* ------------------------------------------------------------------ *)

let same_kind a b =
  match (a, b) with
  | Counter, Counter | Gauge, Gauge -> true
  | Histogram x, Histogram y -> x = y
  | _ -> false

let register t ~help ~volatile ~kind name =
  if not (is_metric_name name) then
    invalid_arg (Printf.sprintf "Metrics: invalid metric name %S" name);
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.specs name with
      | Some existing ->
          if not (same_kind existing.f_kind kind) then
            invalid_arg
              (Printf.sprintf "Metrics: %S re-registered with a different kind"
                 name);
          existing
      | None ->
          let fam = { f_name = name; f_help = help; f_kind = kind; f_volatile = volatile } in
          Hashtbl.replace t.specs name fam;
          fam)

let find t name = Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.specs name)

let counter t ?(help = "") ?(volatile = false) name =
  register t ~help ~volatile ~kind:Counter name

let gauge t ?(help = "") ?(volatile = false) name =
  register t ~help ~volatile ~kind:Gauge name

let histogram t ?(help = "") ?(volatile = false) ~buckets name =
  if buckets = [] then invalid_arg "Metrics.histogram: empty bucket list";
  let rec monotonic = function
    | a :: (b :: _ as rest) -> a < b && monotonic rest
    | _ -> true
  in
  if not (monotonic buckets) then
    invalid_arg "Metrics.histogram: buckets must be strictly increasing";
  register t ~help ~volatile ~kind:(Histogram (Array.of_list buckets)) name

(* ------------------------------------------------------------------ *)
(* Observation                                                         *)
(* ------------------------------------------------------------------ *)

let canonical_labels labels =
  List.iter
    (fun (k, _) ->
      if not (is_label_name k) then
        invalid_arg (Printf.sprintf "Metrics: invalid label name %S" k))
    labels;
  List.sort compare labels

(* Callers must hold [t.lock]. *)
let find_series t fam labels =
  let key = (fam.f_name, labels) in
  match Hashtbl.find_opt t.series key with
  | Some s -> s
  | None ->
      let buckets =
        match fam.f_kind with
        | Histogram bounds -> Array.make (Array.length bounds + 1) 0.0
        | Counter | Gauge -> [||]
      in
      let s =
        {
          sr_value = 0.0;
          sr_count = 0.0;
          sr_buckets = buckets;
          sr_ex_value = 0.0;
          sr_ex_id = "";
        }
      in
      Hashtbl.replace t.series key s;
      s

let with_series t fam labels f =
  let labels = canonical_labels labels in
  Mutex.lock t.lock;
  let s = find_series t fam labels in
  f s;
  Mutex.unlock t.lock

let inc ?(labels = []) ?(by = 1.0) t fam =
  (match fam.f_kind with
  | Counter -> ()
  | _ -> invalid_arg (Printf.sprintf "Metrics.inc: %S is not a counter" fam.f_name));
  if by < 0.0 then invalid_arg "Metrics.inc: counters only go up";
  with_series t fam labels (fun s -> s.sr_value <- s.sr_value +. by)

let set ?(labels = []) t fam v =
  (match fam.f_kind with
  | Gauge -> ()
  | _ -> invalid_arg (Printf.sprintf "Metrics.set: %S is not a gauge" fam.f_name));
  with_series t fam labels (fun s -> s.sr_value <- v)

(* The exemplar tracks the max-value observation: first observation
   always wins an empty slot, later ones only on a strictly greater
   value, so ties keep the earliest id and the result is deterministic
   for a given observation order. *)
let note_exemplar s v id =
  match id with
  | None -> ()
  | Some id ->
      if s.sr_ex_id = "" || v > s.sr_ex_value then begin
        s.sr_ex_value <- v;
        s.sr_ex_id <- id
      end

let observe ?(labels = []) ?exemplar t fam v =
  match fam.f_kind with
  | Histogram bounds ->
      with_series t fam labels (fun s ->
          s.sr_value <- s.sr_value +. v;
          s.sr_count <- s.sr_count +. 1.0;
          let n = Array.length bounds in
          let rec slot i = if i >= n || v <= bounds.(i) then i else slot (i + 1) in
          let i = slot 0 in
          s.sr_buckets.(i) <- s.sr_buckets.(i) +. 1.0;
          note_exemplar s v exemplar)
  | _ ->
      invalid_arg (Printf.sprintf "Metrics.observe: %S is not a histogram" fam.f_name)

(* ------------------------------------------------------------------ *)
(* Pre-resolved handles                                                *)
(* ------------------------------------------------------------------ *)

(* A handle pins one (family, label set) series so hot paths skip the
   per-call label canonicalization and hash lookup. *)
type handle = { h_lock : Mutex.t; h_kind : kind; h_series : series }

let handle ?(labels = []) t fam =
  let labels = canonical_labels labels in
  Mutex.lock t.lock;
  let s = find_series t fam labels in
  Mutex.unlock t.lock;
  { h_lock = t.lock; h_kind = fam.f_kind; h_series = s }

let hinc ?(by = 1.0) h =
  (match h.h_kind with
  | Counter -> ()
  | _ -> invalid_arg "Metrics.hinc: not a counter");
  if by < 0.0 then invalid_arg "Metrics.hinc: counters only go up";
  Mutex.lock h.h_lock;
  h.h_series.sr_value <- h.h_series.sr_value +. by;
  Mutex.unlock h.h_lock

let hset h v =
  (match h.h_kind with
  | Gauge -> ()
  | _ -> invalid_arg "Metrics.hset: not a gauge");
  Mutex.lock h.h_lock;
  h.h_series.sr_value <- v;
  Mutex.unlock h.h_lock

let hobserve ?exemplar h v =
  match h.h_kind with
  | Histogram bounds ->
      Mutex.lock h.h_lock;
      let s = h.h_series in
      s.sr_value <- s.sr_value +. v;
      s.sr_count <- s.sr_count +. 1.0;
      let n = Array.length bounds in
      let rec slot i = if i >= n || v <= bounds.(i) then i else slot (i + 1) in
      s.sr_buckets.(slot 0) <- s.sr_buckets.(slot 0) +. 1.0;
      note_exemplar s v exemplar;
      Mutex.unlock h.h_lock
  | _ -> invalid_arg "Metrics.hobserve: not a histogram"

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)
(* ------------------------------------------------------------------ *)

let read t fam labels =
  let labels = canonical_labels labels in
  Mutex.lock t.lock;
  let s = Hashtbl.find_opt t.series (fam.f_name, labels) in
  Mutex.unlock t.lock;
  s

let value ?(labels = []) t fam =
  Option.map
    (fun s ->
      match fam.f_kind with Histogram _ -> s.sr_count | _ -> s.sr_value)
    (read t fam labels)

let exemplar ?(labels = []) t fam =
  match read t fam labels with
  | Some s when s.sr_ex_id <> "" -> Some (s.sr_ex_id, s.sr_ex_value)
  | _ -> None

type summary = { s_count : int; s_p50 : float; s_p90 : float; s_p99 : float }

(* Prometheus-style interpolation over cumulative (upper bound, count)
   buckets: find the bucket the rank falls in and interpolate linearly
   between its bounds; ranks landing in the +Inf bucket clamp to the
   largest finite bound. *)
let quantile buckets q =
  match (buckets, List.rev buckets) with
  | (first, _) :: _, (_, total) :: _ when total > 0.0 ->
      let rank = q *. total in
      let rec walk lower prev = function
        | [] -> lower
        | (upper, _) :: _ when upper = Float.infinity -> lower
        | (upper, cum) :: rest ->
            if cum < rank then walk upper cum rest
            else if cum -. prev <= 0.0 then upper
            else
              lower +. ((upper -. lower) *. ((rank -. prev) /. (cum -. prev)))
      in
      walk (Float.min 0.0 first) 0.0 buckets
  | _ -> 0.0

(* A series' per-bucket slots as cumulative (upper bound, count) pairs,
   the last one +Inf. *)
let cumulative bounds slots =
  let n = Array.length bounds in
  let rec go i cum =
    if i > n then []
    else
      let cum = cum +. slots.(i) in
      ((if i < n then bounds.(i) else Float.infinity), cum) :: go (i + 1) cum
  in
  go 0 0.0

let summarize ?(labels = []) t fam =
  match fam.f_kind with
  | Histogram bounds -> (
      match read t fam labels with
      | Some s when s.sr_count > 0.0 ->
          let q = quantile (cumulative bounds s.sr_buckets) in
          Some
            {
              s_count = int_of_float s.sr_count;
              s_p50 = q 0.5;
              s_p90 = q 0.9;
              s_p99 = q 0.99;
            }
      | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Writers                                                             *)
(* ------------------------------------------------------------------ *)

(* Canonical value formatting: exact integers print bare, everything
   else through %.12g — deterministic on every platform. *)
let fmt v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.12g" v

let escape_label_value s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (function
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let escape_help s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (function
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let label_string labels =
  match labels with
  | [] -> ""
  | _ ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) -> Printf.sprintf "%s=%S" k (escape_label_value v))
             labels)
      ^ "}"

(* Snapshot of the registry in deterministic order: families sorted by
   name (volatile optionally dropped), each with its series sorted by
   canonical label list. *)
let snapshot ?(suppress_volatile = false) t =
  Mutex.lock t.lock;
  let by_family : (string, ((string * string) list * series) list ref) Hashtbl.t =
    Hashtbl.create 32
  in
  Hashtbl.iter
    (fun (name, labels) s ->
      let copy =
        {
          sr_value = s.sr_value;
          sr_count = s.sr_count;
          sr_buckets = Array.copy s.sr_buckets;
          sr_ex_value = s.sr_ex_value;
          sr_ex_id = s.sr_ex_id;
        }
      in
      match Hashtbl.find_opt by_family name with
      | Some r -> r := (labels, copy) :: !r
      | None -> Hashtbl.replace by_family name (ref [ (labels, copy) ]))
    t.series;
  let fams =
    Hashtbl.fold
      (fun _ fam acc ->
        if suppress_volatile && fam.f_volatile then acc else fam :: acc)
      t.specs []
  in
  Mutex.unlock t.lock;
  let fams = List.sort (fun a b -> compare a.f_name b.f_name) fams in
  List.filter_map
    (fun fam ->
      match Hashtbl.find_opt by_family fam.f_name with
      | None -> None
      | Some r -> Some (fam, List.sort compare !r))
    fams

let kind_name = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Histogram _ -> "histogram"

let to_prometheus ?suppress_volatile t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (fam, series) ->
      if fam.f_help <> "" then
        Buffer.add_string buf
          (Printf.sprintf "# HELP %s %s\n" fam.f_name (escape_help fam.f_help));
      Buffer.add_string buf
        (Printf.sprintf "# TYPE %s %s\n" fam.f_name (kind_name fam.f_kind));
      List.iter
        (fun (labels, s) ->
          match fam.f_kind with
          | Counter | Gauge ->
              Buffer.add_string buf
                (Printf.sprintf "%s%s %s\n" fam.f_name (label_string labels)
                   (fmt s.sr_value))
          | Histogram bounds ->
              List.iter
                (fun (le, cum) ->
                  let le = if le = Float.infinity then "+Inf" else fmt le in
                  Buffer.add_string buf
                    (Printf.sprintf "%s_bucket%s %s\n" fam.f_name
                       (label_string (labels @ [ ("le", le) ]))
                       (fmt cum)))
                (cumulative bounds s.sr_buckets);
              Buffer.add_string buf
                (Printf.sprintf "%s_sum%s %s\n" fam.f_name (label_string labels)
                   (fmt s.sr_value));
              Buffer.add_string buf
                (Printf.sprintf "%s_count%s %s\n" fam.f_name
                   (label_string labels) (fmt s.sr_count));
              (* The 0.0.4 text format has no native exemplars, so the
                 max-latency trace_id rides in a comment scrapers ignore
                 but [lint] validates. *)
              if s.sr_ex_id <> "" then
                Buffer.add_string buf
                  (Printf.sprintf "# EXEMPLAR %s%s %s %s\n" fam.f_name
                     (label_string labels) s.sr_ex_id (fmt s.sr_ex_value)))
        series)
    (snapshot ?suppress_volatile t);
  Buffer.contents buf

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Json.Int (int_of_float v)
  else Json.Float v

let to_json ?suppress_volatile ?timestamp t =
  let families =
    List.map
      (fun (fam, series) ->
        let series_json =
          List.map
            (fun (labels, s) ->
              let labels_json =
                Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) labels)
              in
              match fam.f_kind with
              | Counter | Gauge ->
                  Json.Obj
                    [ ("labels", labels_json); ("value", json_number s.sr_value) ]
              | Histogram bounds ->
                  (* Cumulative counts, like the text exposition — the
                     slots store per-bucket increments. *)
                  let bucket (le, cum) =
                    Json.Obj
                      [
                        ( "le",
                          if le = Float.infinity then Json.String "+Inf"
                          else Json.Float le );
                        ("count", json_number cum);
                      ]
                  in
                  Json.Obj
                    ([
                       ("labels", labels_json);
                      ( "buckets",
                        Json.List
                          (List.map bucket (cumulative bounds s.sr_buckets)) );
                      ("sum", json_number s.sr_value);
                      ("count", json_number s.sr_count);
                    ]
                    @
                    if s.sr_ex_id = "" then []
                    else
                      [
                        ( "exemplar",
                          Json.Obj
                            [
                              ("trace_id", Json.String s.sr_ex_id);
                              ("value", json_number s.sr_ex_value);
                            ] );
                      ]))
            series
        in
        Json.Obj
          [
            ("name", Json.String fam.f_name);
            ("kind", Json.String (kind_name fam.f_kind));
            ("help", Json.String fam.f_help);
            ("volatile", Json.Bool fam.f_volatile);
            ("series", Json.List series_json);
          ])
      (snapshot ?suppress_volatile t)
  in
  Json.Obj
    ((match timestamp with
     | Some ts -> [ ("timestamp", Json.Float ts) ]
     | None -> [])
    @ [ ("metrics", Json.List families) ])

(* ------------------------------------------------------------------ *)
(* Exposition linting                                                  *)
(* ------------------------------------------------------------------ *)

type sample = {
  sm_name : string;
  sm_labels : (string * string) list;
  sm_value : float;
  sm_line : int;
}

(* Parse one sample line: name{k="v",...} value. *)
let parse_sample ~line_no line =
  let err msg = Error (Printf.sprintf "line %d: %s" line_no msg) in
  let name_end =
    let n = String.length line in
    let rec go i =
      if i >= n then i
      else
        match line.[i] with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> go (i + 1)
        | _ -> i
    in
    go 0
  in
  if name_end = 0 then err "sample does not start with a metric name"
  else
    let name = String.sub line 0 name_end in
    let rest = String.sub line name_end (String.length line - name_end) in
    let labels_result, rest =
      if rest <> "" && rest.[0] = '{' then
        match String.index_opt rest '}' with
        | None -> (Error "unterminated label set", "")
        | Some close ->
            let body = String.sub rest 1 (close - 1) in
            let tail =
              String.sub rest (close + 1) (String.length rest - close - 1)
            in
            let parse_one kv =
              let kv = String.trim kv in
              match String.index_opt kv '=' with
              | None -> Error (Printf.sprintf "label %S has no '='" kv)
              | Some eq ->
                  let k = String.sub kv 0 eq in
                  let v = String.sub kv (eq + 1) (String.length kv - eq - 1) in
                  if not (is_label_name k) then
                    Error (Printf.sprintf "invalid label name %S" k)
                  else if
                    String.length v < 2
                    || v.[0] <> '"'
                    || v.[String.length v - 1] <> '"'
                  then Error (Printf.sprintf "label value %S not quoted" v)
                  else Ok (k, String.sub v 1 (String.length v - 2))
            in
            let rec split acc = function
              | [] -> Ok (List.rev acc)
              | kv :: rest -> (
                  match parse_one kv with
                  | Ok p -> split (p :: acc) rest
                  | Error e -> Error e)
            in
            if String.trim body = "" then (Ok [], tail)
            else (split [] (String.split_on_char ',' body), tail)
      else (Ok [], rest)
    in
    match labels_result with
    | Error e -> err e
    | Ok labels -> (
        let value_str = String.trim rest in
        (* Tolerate a trailing timestamp field. *)
        let value_str =
          match String.index_opt value_str ' ' with
          | Some sp -> String.sub value_str 0 sp
          | None -> value_str
        in
        let parsed =
          match value_str with
          | "+Inf" -> Some Float.infinity
          | "-Inf" -> Some Float.neg_infinity
          | "NaN" -> Some Float.nan
          | s -> float_of_string_opt s
        in
        match parsed with
        | None -> err (Printf.sprintf "value %S is not a float" value_str)
        | Some v ->
            Ok { sm_name = name; sm_labels = labels; sm_value = v; sm_line = line_no })

let strip_suffix name =
  let try_one suffix =
    let n = String.length name and m = String.length suffix in
    if n > m && String.sub name (n - m) m = suffix then
      Some (String.sub name 0 (n - m))
    else None
  in
  match try_one "_bucket" with
  | Some base -> Some (base, `Bucket)
  | None -> (
      match try_one "_sum" with
      | Some base -> Some (base, `Sum)
      | None -> (
          match try_one "_count" with
          | Some base -> Some (base, `Count)
          | None -> None))

let lint text =
  let errors = ref [] in
  let err line_no msg =
    errors := Printf.sprintf "line %d: %s" line_no msg :: !errors
  in
  let types : (string, string) Hashtbl.t = Hashtbl.create 16 in
  let samples = ref [] in
  let exemplars = ref [] in
  let lines = String.split_on_char '\n' text in
  List.iteri
    (fun i line ->
      let line_no = i + 1 in
      if line = "" then ()
      else if String.length line >= 7 && String.sub line 0 7 = "# TYPE " then begin
        let rest = String.sub line 7 (String.length line - 7) in
        match String.split_on_char ' ' (String.trim rest) with
        | [ name; kind ] ->
            if not (is_metric_name name) then
              err line_no (Printf.sprintf "invalid metric name %S in TYPE" name);
            if
              not
                (List.mem kind
                   [ "counter"; "gauge"; "histogram"; "summary"; "untyped" ])
            then err line_no (Printf.sprintf "unknown metric type %S" kind);
            if Hashtbl.mem types name then
              err line_no (Printf.sprintf "duplicate TYPE for %S" name);
            Hashtbl.replace types name kind
        | _ -> err line_no "malformed TYPE line"
      end
      else if String.length line >= 11 && String.sub line 0 11 = "# EXEMPLAR "
      then
        exemplars :=
          (line_no, String.sub line 11 (String.length line - 11)) :: !exemplars
      else if String.length line >= 1 && line.[0] = '#' then ()
      else
        match parse_sample ~line_no line with
        | Error e -> errors := e :: !errors
        | Ok s -> samples := s :: !samples)
    lines;
  let samples = List.rev !samples in
  (* Every sample must belong to a declared family. *)
  let family_of s =
    match Hashtbl.find_opt types s.sm_name with
    | Some k -> Some (s.sm_name, k, `Plain)
    | None -> (
        match strip_suffix s.sm_name with
        | Some (base, role) when Hashtbl.find_opt types base = Some "histogram"
          ->
            Some (base, "histogram", (role :> [ `Bucket | `Sum | `Count | `Plain ]))
        | _ -> None)
  in
  List.iter
    (fun s ->
      match family_of s with
      | None ->
          err s.sm_line
            (Printf.sprintf "sample %S has no # TYPE declaration" s.sm_name)
      | Some _ -> ())
    samples;
  (* Duplicate series. *)
  let seen = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let key = (s.sm_name, List.sort compare s.sm_labels) in
      if Hashtbl.mem seen key then
        err s.sm_line
          (Printf.sprintf "duplicate series %s%s" s.sm_name
             (label_string s.sm_labels))
      else Hashtbl.replace seen key ())
    samples;
  (* Histogram consistency per (family, labels-minus-le). *)
  let hist : (string * (string * string) list, (float * float) list ref) Hashtbl.t =
    Hashtbl.create 16
  and sums = Hashtbl.create 16
  and counts = Hashtbl.create 16 in
  List.iter
    (fun s ->
      match family_of s with
      | Some (base, "histogram", `Bucket) -> (
          let le = List.assoc_opt "le" s.sm_labels in
          let rest =
            List.sort compare (List.remove_assoc "le" s.sm_labels)
          in
          match le with
          | None -> err s.sm_line "histogram bucket without an le label"
          | Some le_str -> (
              let bound =
                match le_str with
                | "+Inf" -> Some Float.infinity
                | s -> float_of_string_opt s
              in
              match bound with
              | None ->
                  err s.sm_line (Printf.sprintf "unparsable le bound %S" le_str)
              | Some b -> (
                  let key = (base, rest) in
                  match Hashtbl.find_opt hist key with
                  | Some r -> r := (b, s.sm_value) :: !r
                  | None -> Hashtbl.replace hist key (ref [ (b, s.sm_value) ]))))
      | Some (base, "histogram", `Sum) ->
          Hashtbl.replace sums (base, List.sort compare s.sm_labels) s.sm_value
      | Some (base, "histogram", `Count) ->
          Hashtbl.replace counts (base, List.sort compare s.sm_labels) s.sm_value
      | _ -> ())
    samples;
  Hashtbl.iter
    (fun (base, labels) r ->
      let buckets = List.rev !r in
      let bounds = List.map fst buckets in
      let rec ascending = function
        | a :: (b :: _ as rest) -> a < b && ascending rest
        | _ -> true
      in
      if not (ascending bounds) then
        err 0 (Printf.sprintf "histogram %s: le bounds not ascending" base);
      (match List.rev bounds with
      | last :: _ when last = Float.infinity -> ()
      | _ -> err 0 (Printf.sprintf "histogram %s: missing +Inf bucket" base));
      let values = List.map snd buckets in
      let rec non_decreasing = function
        | a :: (b :: _ as rest) -> a <= b && non_decreasing rest
        | _ -> true
      in
      if not (non_decreasing values) then
        err 0 (Printf.sprintf "histogram %s: cumulative counts decrease" base);
      (match (List.rev values, Hashtbl.find_opt counts (base, labels)) with
      | last :: _, Some c when last <> c ->
          err 0
            (Printf.sprintf "histogram %s: +Inf bucket (%s) != _count (%s)" base
               (fmt last) (fmt c))
      | _, None -> err 0 (Printf.sprintf "histogram %s: missing _count" base)
      | _ -> ());
      if not (Hashtbl.mem sums (base, labels)) then
        err 0 (Printf.sprintf "histogram %s: missing _sum" base))
    hist;
  (* Exemplar comments: [# EXEMPLAR name{labels} trace_id value] —
     the series part must parse, the family must be a declared
     histogram, the id must be 16 hex chars and the value a float. *)
  let rsplit s =
    match String.rindex_opt s ' ' with
    | None -> None
    | Some i ->
        Some
          ( String.trim (String.sub s 0 i),
            String.sub s (i + 1) (String.length s - i - 1) )
  in
  List.iter
    (fun (line_no, body) ->
      match rsplit (String.trim body) with
      | None -> err line_no "malformed EXEMPLAR line (missing value)"
      | Some (head1, value_str) -> (
          match rsplit head1 with
          | None -> err line_no "malformed EXEMPLAR line (missing trace_id)"
          | Some (head, id) -> (
              if float_of_string_opt value_str = None then
                err line_no
                  (Printf.sprintf "EXEMPLAR value %S is not a float" value_str);
              if Trace.id_of_hex id = None then
                err line_no
                  (Printf.sprintf "EXEMPLAR trace_id %S is not 16 hex chars" id);
              match parse_sample ~line_no (head ^ " 0") with
              | Error e -> errors := e :: !errors
              | Ok s -> (
                  match Hashtbl.find_opt types s.sm_name with
                  | Some "histogram" -> ()
                  | Some k ->
                      err line_no
                        (Printf.sprintf
                           "EXEMPLAR for %S, a %s (histograms only)" s.sm_name k)
                  | None ->
                      err line_no
                        (Printf.sprintf "EXEMPLAR for undeclared family %S"
                           s.sm_name)))))
    (List.rev !exemplars);
  match List.rev !errors with [] -> Ok () | es -> Error es
