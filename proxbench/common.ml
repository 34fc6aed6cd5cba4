(* Shared plumbing of the benchmark: clocks, sample statistics, the
   result line, process memory, the work directory and the traced-mode
   span collector. *)

let now = Unix.gettimeofday

(* Time [f], returning its result and the elapsed wall seconds. *)
let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* --- sample statistics ------------------------------------------------- *)

let sorted samples =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  a

(* Linear-interpolated quantile of a sorted array (numpy's default). *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

(* A percentile is only reported when at least ten samples lie beyond
   it; below that the tail is a handful of points and not a figure. *)
let percentile samples q =
  let n = List.length samples in
  if (float_of_int n *. (1.0 -. q)) +. 1e-9 < 10.0 then
    invalid_arg
      (Printf.sprintf "percentile %.2f needs %d samples, got %d" q
         (int_of_float (ceil (10.0 /. (1.0 -. q))))
         n)
  else quantile_sorted (sorted samples) q

let median samples = quantile_sorted (sorted samples) 0.5
let sum = List.fold_left ( +. ) 0.0
let mean samples = sum samples /. float_of_int (max 1 (List.length samples))

(* --- the result line ---------------------------------------------------- *)

type metric = { m_name : string; m_value : float; m_unit : string }

let metric m_name m_unit m_value = { m_name; m_value; m_unit }

(* What a workload run hands back for the result line. *)
type outcome = {
  o_correct : bool;
  o_attempted : int;
  o_failed : int;
  o_metrics : metric list;
}

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* The last line of standard output: what the run attempted, what
   failed, whether the outputs checked out, and the metrics. *)
let result_line ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.m_name
             (number m.m_value) m.m_unit)
         metrics)
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed body

(* --- process memory ----------------------------------------------------- *)

(* VmHWM (peak resident set) of a process, in MiB. *)
let peak_rss_mb ?(pid = "self") () =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> nan
  | text ->
      let line =
        List.find_opt
          (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
          (String.split_on_char '\n' text)
      in
      (match line with
      | None -> nan
      | Some l ->
          Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB"
            (fun kb -> float_of_int kb /. 1024.0))

(* --- CPU time ------------------------------------------------------------ *)

(* The timings the gate reads are CPU time, not wall time.  The host is a
   virtual machine whose cores the hypervisor also gives to other
   tenants: the stolen share ranged from nothing to over a quarter of a
   run, and it stretches wall time by as much while CPU time excludes
   it. *)

(* CPU seconds this process has run, all threads. *)
let cpu_self () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* CPU seconds another process has run, all threads, from the kernel's
   per-thread run time (/proc/PID/task/TID/schedstat, nanoseconds). *)
let cpu_of_pid pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  let tids = try Sys.readdir dir with Sys_error _ -> [||] in
  Array.fold_left
    (fun acc tid ->
      let path = Filename.concat (Filename.concat dir tid) "schedstat" in
      match In_channel.with_open_text path In_channel.input_all with
      | text -> acc +. (Scanf.sscanf text "%f" Fun.id /. 1e9)
      | exception (Sys_error _ | Scanf.Scan_failure _ | End_of_file) -> acc)
    0.0 tids

(* (stolen, total) CPU ticks of the whole machine so far, from the first
   line of /proc/stat. *)
let host_ticks () =
  match In_channel.with_open_text "/proc/stat" In_channel.input_line with
  | Some line -> (
      match
        List.filter_map int_of_string_opt
          (List.filter (( <> ) "") (String.split_on_char ' ' line))
      with
      | fields when List.length fields >= 8 ->
          (List.nth fields 7, List.fold_left ( + ) 0 fields)
      | _ -> (0, 0))
  | None | (exception Sys_error _) -> (0, 0)

(* --- speed calibration ---------------------------------------------------- *)

(* CPU time still moves with the machine: within one session the same
   binary's CPU time per pass changed by a factor of 2.4 between two sets
   of runs.  So every run also times a fixed kernel that uses none of the
   program's code (hashtable inserts and lookups on string keys), and the
   gated timings are scaled by its median to the reference speed, at which
   the kernel takes [reference_kernel_ms].  A gain in the program moves
   the workload's CPU time and not the kernel's; a faster or slower
   machine moves both. *)
let reference_kernel_ms = 12.0

let kernel () =
  let h = Hashtbl.create 4096 in
  for i = 0 to 19_999 do
    Hashtbl.replace h (string_of_int (i * 7919)) (Array.make 4 i)
  done;
  let acc = ref 0 in
  for i = 0 to 39_999 do
    match Hashtbl.find_opt h (string_of_int (i * 7919)) with
    | Some a -> acc := !acc + a.(i land 3)
    | None -> incr acc
  done;
  ignore (Sys.opaque_identity !acc)

(* CPU milliseconds of one kernel run. *)
let kernel_ms () =
  let c0 = cpu_self () in
  kernel ();
  (cpu_self () -. c0) *. 1000.0

(* The factor that turns this run's CPU time into reference CPU time,
   from the run's kernel timings. *)
let speed_scale kernel_samples = reference_kernel_ms /. median kernel_samples

(* The share of the machine's CPU time stolen since [since]. *)
let steal_share ~since =
  let s0, t0 = since and s1, t1 = host_ticks () in
  if t1 > t0 then float_of_int (s1 - s0) /. float_of_int (t1 - t0) else 0.0

(* --- files -------------------------------------------------------------- *)

(* Scratch files of a run (journals, trace dumps) live under this
   directory of the checkout the benchmark runs in. *)
let work_dir = "_proxbench"

let work_path name =
  if not (Sys.file_exists work_dir) then Sys.mkdir work_dir 0o755;
  Filename.concat work_dir name

let remove_if_exists path = if Sys.file_exists path then Sys.remove path

let file_size path =
  match Unix.stat path with
  | st -> st.Unix.st_size
  | exception Unix.Unix_error _ -> 0

let log fmt = Printf.ksprintf (fun s -> prerr_endline ("proxbench: " ^ s)) fmt

(* --- traced mode --------------------------------------------------------- *)

(* In traced mode every timed call is also recorded as a complete span
   in memory; the collector is written out once, at the end of the run.
   Untraced runs pass [None] and record nothing. *)
type tracer = Obs.Trace.t option

let span (tr : tracer) ?(cat = "bench") ?(args = []) name ~t0 ~t1 =
  match tr with
  | None -> ()
  | Some t ->
      Obs.Trace.complete t ~cat ~args ~name ~ts:t0 ~dur:(t1 -. t0)

let write_trace (tr : tracer) name =
  match tr with
  | None -> ()
  | Some t ->
      let path = work_path name in
      Out_channel.with_open_text path (fun oc -> Obs.Trace.write t oc);
      log "trace: %d spans -> %s" (Obs.Trace.count t) path
