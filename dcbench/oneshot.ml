(* One-shot workloads: a library user calls [Dcdatalog.prepare] and
   [Dcdatalog.run] in process and waits for the answer. *)

open Common

type t = {
  name : string;
  spec : D.Queries.spec;
  build : D.Graph.t -> D.Queries.edb;
  scale : int;
  edges : int;
  default_seed : int; (* reproduces the named dataset *)
}

(* rmat-800 (Datasets.rmat 800): TC derives ~0.53 M tuples and ships
   ~1 M through the exchange; the time goes to the delta join, the
   exchange and the batch-sorted merge, with a negligible EDB load. *)
let tc_rmat800 =
  {
    name = "tc-rmat800";
    spec = D.Queries.tc;
    build = D.Queries.arc_edb;
    scale = 10;
    edges = 8000;
    default_seed = 907;
  }

(* twitter-sim (Datasets.twitter_sim): the paper's Fig. 1 query, a
   min-aggregate recursion over ~15 DWS iterations, where EDB load and
   index build take about half the wall time. *)
let sssp_twitter =
  {
    name = "sssp-twitter";
    spec = D.Queries.sssp;
    build = D.Queries.warc_edb;
    scale = 16;
    edges = 1_468_000;
    default_seed = 104;
  }

(* The EDB and the query parameters (SSSP starts from the renumbered
   vertex 0, the RMAT hub). *)
let generate w ~seed =
  let g, perm = dataset ~named_seed:w.default_seed ~seed ~scale:w.scale ~edges:w.edges in
  let params =
    List.map
      (fun (k, v) -> if k = "start" then (k, perm.(v)) else (k, v))
      w.spec.D.Queries.default_params
  in
  (w.build g, params)


(* Runs per phase below which the timed loop keeps going past its
   deadline, so a median always has several samples. *)
let min_runs = 3

type state = {
  mutable attempted : int;
  mutable failed : int;
}

(* The reference answer, by another path than the timed runs: one
   worker, so no partitioning, exchange or stealing.  (The naive
   evaluator does not finish on inputs of this size.) *)
let reference w prepared ~edb =
  let result = D.run prepared ~edb ~config:{ config with D.workers = 1 } () in
  fp_of_result result w.spec.D.Queries.output

let check w st ~expected result =
  st.attempted <- st.attempted + 1;
  let got = fp_of_result result w.spec.D.Queries.output in
  if got <> expected then begin
    st.failed <- st.failed + 1;
    Printf.printf "MISMATCH: %s answered %s, reference %s\n" w.name (fp_to_string got)
      (fp_to_string expected)
  end

(* Runs one [Dcdatalog.run] through [f], with the heap collected
   beforehand so that garbage of the previous run is not charged to this
   one; an engine error counts as a failed operation. *)
let guarded st f =
  Gc.full_major ();
  match f () with
  | r -> Some r
  | exception D.Engine_error.Error e ->
    st.attempted <- st.attempted + 1;
    st.failed <- st.failed + 1;
    Printf.printf "ENGINE ERROR: %s\n" (D.Engine_error.to_string e);
    if st.failed > 10 then failwith "the engine keeps failing";
    None

let report_serving_na () =
  List.iter
    (fun n -> Printf.printf "  %-34s            n/a (one-shot workload)\n" n)
    [ "update_p50_s"; "update_p90_s"; "bulk_update_p50_s"; "read_p50_ms"; "read_p99_ms" ]

let run w ~seed ~seconds ~trace =
  environment ~workload:w.name ~seed;
  let st = { attempted = 0; failed = 0 } in
  let source = w.spec.D.Queries.source in
  let samples = Samples.create () in
  (* one set-up: seed -> generated EDB -> prepared program *)
  let traced_setup = ref None in
  let setup () =
    Gc.full_major ();
    let t0 = now () in
    let (edb, params), gen = time (fun () -> generate w ~seed) in
    let prepared =
      if trace then begin
        let p, spans = Engine_trace.traced_prepare samples ~params source in
        Samples.add samples "workload.gen_s" "s" gen;
        traced_setup :=
          Some
            { sname = "setup"; dur = now () -. t0; children = leaf "workload.gen" gen :: spans };
        p
      end
      else Engine_trace.prepare ~params source
    in
    (now () -. t0, (edb, prepared))
  in
  let last = ref None in
  let setup_times =
    ref
      (repeat ~min:3 ~span:0. (fun () ->
           last := None;
           let dt, inputs = setup () in
           last := Some inputs;
           dt))
  in
  let edb, prepared = Option.get !last in
  let expected = reference w prepared ~edb in
  st.attempted <- st.attempted + 1;
  Printf.printf "input: %d %s tuples; reference answer (1 worker): %s\n"
    (List.fold_left (fun acc (_, v) -> acc + D.Vec.length v) 0 edb)
    (String.concat "+" (List.map fst edb))
    (fp_to_string expected);
  (* the timed loop; a traced run alternates untraced and traced runs *)
  let untraced = ref [] and traced = ref [] and rss_samples = ref [] in
  let last_span = ref None in
  let deadline = now () +. float_of_int seconds in
  let enough () =
    List.length !untraced >= min_runs && ((not trace) || List.length !traced >= min_runs)
  in
  while now () < deadline || not (enough ()) do
    let traced_turn = trace && List.length !traced < List.length !untraced in
    if traced_turn then
      guarded st (fun () -> Engine_trace.traced_run samples prepared ~edb)
      |> Option.iter (fun (result, wall, span) ->
             check w st ~expected result;
             traced := wall :: !traced;
             last_span := Some span)
    else
      guarded st (fun () ->
          reset_peak_rss 0;
          let result, wall = time (fun () -> Engine_trace.run prepared ~edb) in
          (result, wall, peak_rss_mb 0))
      |> Option.iter (fun (result, wall, rss) ->
             check w st ~expected result;
             untraced := wall :: !untraced;
             rss_samples := rss :: !rss_samples;
             (* a set-up cheaper than a tenth of a run is measured again
                after each run, for a tenth of its wall, so that set-up
                samples span the whole window like the runs do *)
             if median !setup_times < 0.1 *. wall then
               setup_times :=
                 List.rev_append (repeat ~min:5 ~span:(0.1 *. wall) (fun () -> fst (setup ())))
                   !setup_times)
  done;
  let e2e =
    [
      m "setup_s" "s" (median !setup_times);
      m "query_p50_s" "s" (median !untraced);
      m "peak_rss_mb" "MB" (median !rss_samples);
    ]
  in
  let setups = List.length !setup_times in
  Printf.printf "end-to-end (%d set-ups, %d untraced runs):\n" setups (List.length !untraced);
  print_samples "set-up walls (s)" !setup_times;
  print_samples "query walls (s)" !untraced;
  print_samples "peak RSS per query (MB)" !rss_samples;
  List.iter metric_line e2e;
  report_serving_na ();
  Printf.printf "  %-34s %14.6f (%d failed / %d attempted)\n" "error_rate"
    (float_of_int st.failed /. float_of_int st.attempted)
    st.failed st.attempted;
  let metrics =
    if not trace then e2e
    else begin
      let layers = Engine_trace.layer_metrics samples ~traced:!traced ~untraced:!untraced in
      Printf.printf "per layer (medians of %d traced runs and %d traced set-ups):\n"
        (List.length !traced) setups;
      List.iter metric_line layers;
      Option.iter (print_spans "last traced set-up") !traced_setup;
      Option.iter (print_spans "last traced Dcdatalog.run") !last_span;
      Printf.printf "tracing overhead: traced run median %.6f s vs untraced median %.6f s\n"
        (median !traced) (median !untraced);
      layers
    end
  in
  (st.attempted, st.failed, metrics)
