(* proxbench: one benchmark command over the ProxioN reproduction.

     bench.exe --workload scan|emulate|watch --seed N --seconds S
               --trace 0|1 --cli PATH [--quick]

   The last line of standard output is the run's result object; with
   --trace 0 it carries the end-to-end metrics, with --trace 1 the
   per-layer ones (see README.md). *)

open Common

let usage = "bench.exe --workload NAME --seed N --seconds S --trace 0|1 --cli PATH"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let cli = ref "_build/default/bin/proxion_cli.exe" and quick = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "scan | emulate | watch");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_int seconds, "measured seconds (scan, emulate)");
      ("--trace", Arg.Set_int trace, "1 = traced run, per-layer metrics");
      ("--cli", Arg.Set_string cli, "the proxion executable watch spawns");
      ("--quick", Arg.Set quick, "small landscape, for the self-test");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !quick then begin
    Scan_wl.size := 400;
    Scan_wl.setup_repeats := 1
  end;
  let tracer = if !trace = 1 then Some (Obs.Trace.create ()) else None in
  let seconds = float_of_int !seconds in
  let o =
    match !workload with
    | "scan" -> Scan_wl.run ~mode:`Scan ~seed:!seed ~seconds ~tracer
    | "emulate" -> Scan_wl.run ~mode:`Emulate ~seed:!seed ~seconds ~tracer
    | "watch" -> Watch_wl.run ~cli:!cli ~seed:!seed ~tracer
    | w ->
        prerr_endline ("unknown workload " ^ w ^ "\n" ^ usage);
        exit 2
  in
  write_trace tracer ("trace-" ^ !workload ^ ".json");
  print_endline
    (result_line ~correct:o.o_correct ~attempted:o.o_attempted ~failed:o.o_failed
       o.o_metrics)
