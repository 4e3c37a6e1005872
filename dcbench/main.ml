(* The repository benchmark.  One invocation runs one workload:

     main.exe --workload W --seed N --seconds S --trace 0|1

   It prints a human-readable report and, as the last line, one JSON
   object {"correct", "attempted", "failed", "metrics"}: the end-to-end
   metrics with --trace 0, the per-layer metrics with --trace 1.  It
   exits non-zero when any answer is wrong or any operation failed.
   METRICS.md describes the workloads and metrics. *)

let workloads = [ "tc-rmat800"; "sssp-twitter"; "serve-tc" ]

let () =
  let workload = ref "" and seed = ref None and seconds = ref 10 and trace = ref 0 in
  let server_exe = ref "_build/default/bin/dcdatalog_cli.exe" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat " | " workloads);
      ("--seed", Arg.Int (fun n -> seed := Some n), " input seed (default: the named dataset's)");
      ("--seconds", Arg.Set_int seconds, " length of the timed window (default 10)");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: per-layer metrics");
      ("--server-exe", Arg.Set_string server_exe, " the dcdatalog executable for serve-tc");
    ]
  in
  let usage = "main.exe --workload W [--seed N] [--seconds S] [--trace 0|1]" in
  let die msg =
    prerr_endline ("dcbench: " ^ msg);
    exit 2
  in
  (try Arg.parse_argv Sys.argv (Arg.align spec) (fun a -> die ("unexpected argument " ^ a)) usage
   with
   | Arg.Bad msg -> die msg
   | Arg.Help msg ->
     print_string msg;
     exit 0);
  if !seconds < 1 then die "--seconds must be at least 1";
  if !trace <> 0 && !trace <> 1 then die "--trace takes 0 or 1";
  let trace = !trace = 1 and seconds = !seconds in
  let pick default = Option.value ~default !seed in
  let attempted, failed, metrics =
    match !workload with
    | "tc-rmat800" ->
      let w = Oneshot.tc_rmat800 in
      Oneshot.run w ~seed:(pick w.default_seed) ~seconds ~trace
    | "sssp-twitter" ->
      let w = Oneshot.sssp_twitter in
      Oneshot.run w ~seed:(pick w.default_seed) ~seconds ~trace
    | "serve-tc" ->
      Serving.run ~exe:!server_exe ~seed:(pick Serving.default_seed) ~seconds ~trace
    | w -> die (Printf.sprintf "unknown workload %S (one of: %s)" w (String.concat ", " workloads))
  in
  Common.emit ~attempted ~failed metrics;
  if failed > 0 then exit 1
