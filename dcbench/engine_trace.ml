(* Calls into the front end and the engine, timed per layer.  The
   untraced path of a workload calls [Dcdatalog.prepare] and
   [Dcdatalog.run]; the traced path calls the same layers one public
   function at a time and reads the engine's own Run_stats and the GC
   counters around the run. *)

open Common
module RS = D.Run_stats

let prepare ?(params = []) source =
  match D.prepare ~params source with
  | Ok p -> p
  | Error e -> failwith ("prepare: " ^ e)

(* [Dcdatalog.prepare], one layer at a time. *)
let traced_prepare samples ?(params = []) source =
  let program, parse = time (fun () -> D.Parser.parse_program source) in
  let info, analyze =
    time (fun () ->
        match D.Analysis.analyze program with Ok i -> i | Error e -> failwith ("analyze: " ^ e))
  in
  let plan, compile =
    time (fun () ->
        match D.Physical.compile ~params info with
        | Ok p -> p
        | Error e -> failwith ("compile: " ^ e))
  in
  Samples.add samples "datalog.parse_s" "s" parse;
  Samples.add samples "datalog.analyze_s" "s" analyze;
  Samples.add samples "planner.compile_s" "s" compile;
  ( { D.source; info; plan },
    [ leaf "datalog.parse" parse; leaf "datalog.analyze" analyze; leaf "planner.compile" compile ] )

let run prepared ~edb = D.run prepared ~edb ~config ()

let sum_workers (st : RS.t) f =
  List.fold_left
    (fun acc (s : RS.stratum) -> Array.fold_left (fun acc w -> acc +. f w) acc s.workers)
    0. st.strata

(* One [Dcdatalog.run] with the engine's layers attributed: the run wall
   splits into pool start/stop (wall − Run_stats.total_wall), EDB load
   (total_wall − Σ stratum wall) and the strata's setup / evaluate /
   materialize; what none of them covers is the engine span's self
   time, reported as engine.unattributed_s. *)
let traced_run samples prepared ~edb =
  let g0 = Gc.stat () in
  let result, wall = time (fun () -> run prepared ~edb) in
  let g1 = Gc.stat () in
  let st = result.D.Parallel.stats in
  let strata f = List.fold_left (fun acc (s : RS.stratum) -> acc +. f s) 0. st.strata in
  let pool = wall -. st.total_wall in
  let edb_load = st.total_wall -. strata (fun s -> s.wall) in
  let setup = strata (fun s -> s.setup) in
  let evaluate = strata (fun s -> s.evaluate) in
  let materialize = strata (fun s -> s.materialize) in
  let span =
    {
      sname = "engine.run";
      dur = wall;
      children =
        [
          leaf "engine.pool" pool;
          leaf "engine.edb_load" edb_load;
          leaf "engine.stratum_setup" setup;
          leaf "engine.evaluate" evaluate;
          leaf "engine.materialize" materialize;
        ];
    }
  in
  let add = Samples.add samples in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  add "engine.pool_s" "s" pool;
  add "engine.edb_load_s" "s" edb_load;
  add "engine.stratum_setup_s" "s" setup;
  add "engine.evaluate_s" "s" evaluate;
  add "engine.materialize_s" "s" materialize;
  add "engine.unattributed_s" "s" (wall -. pool -. edb_load -. setup -. evaluate -. materialize);
  add "worker.join_s" "s" (sum_workers st (fun w -> w.RS.busy_time));
  add "worker.tuples_processed" "count"
    (float_of_int (RS.sum_strata st (fun w -> w.RS.tuples_processed)));
  add "exchange.tuples_sent" "count" (float_of_int (RS.total_sent st));
  add "exchange.batches_sent" "count" (float_of_int (RS.total_batches st));
  add "exchange.words_per_tuple" "ratio" (ratio (RS.total_words st) (RS.total_sent st));
  add "rec_store.merge_s" "s" (RS.total_merge_time st);
  add "rec_store.merged" "count" (float_of_int (RS.total_merged st));
  add "rec_store.dup_ratio" "ratio"
    (ratio (RS.total_dup_dropped st) (RS.total_merged st + RS.total_dup_dropped st));
  add "exist_cache.hit_rate" "ratio"
    (ratio (RS.total_cache_hits st) (RS.total_cache_hits st + RS.total_cache_misses st));
  add "strategy.wait_s" "s" (RS.total_wait st);
  add "strategy.iterations" "count" (float_of_int (RS.total_iterations st));
  add "strategy.busy_imbalance" "ratio" (RS.busy_imbalance st);
  add "steal.steals" "count" (float_of_int (RS.total_steals st));
  add "steal.stolen_tuples" "count" (float_of_int (RS.total_stolen_tuples st));
  add "gc.minor_mwords" "Mwords" ((g1.Gc.minor_words -. g0.Gc.minor_words) /. 1e6);
  add "gc.major_collections" "count"
    (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
  (result, wall, span)

(* Layer metrics every workload reports in its traced run, in the order
   BENCHMARK.json lists them. *)
let layer_names =
  [
    "workload.gen_s"; "datalog.parse_s"; "datalog.analyze_s"; "planner.compile_s";
    "engine.edb_load_s"; "engine.pool_s"; "engine.stratum_setup_s"; "engine.evaluate_s";
    "engine.materialize_s"; "engine.unattributed_s"; "worker.join_s"; "worker.tuples_processed";
    "exchange.tuples_sent"; "exchange.batches_sent"; "exchange.words_per_tuple";
    "rec_store.merge_s"; "rec_store.merged"; "rec_store.dup_ratio"; "exist_cache.hit_rate";
    "strategy.wait_s"; "strategy.iterations"; "strategy.busy_imbalance"; "steal.steals";
    "steal.stolen_tuples"; "gc.minor_mwords"; "gc.major_collections";
  ]

(* The traced [Dcdatalog.run] walls against the untraced ones of the
   same run, as a percentage. *)
let overhead_pct ~traced ~untraced = ((median traced /. median untraced) -. 1.) *. 100.

let layer_metrics samples ~traced ~untraced =
  List.map (Samples.get samples) layer_names
  @ [ m "trace.overhead_pct" "%" (overhead_pct ~traced ~untraced) ]
