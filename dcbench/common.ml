(* Shared pieces of the benchmark: timing, order statistics, memory
   readings, answer fingerprints, the per-layer trace, and the report. *)

module D = Dcdatalog

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Every workload runs the engine as the issue fixes it: two workers
   (the machine's two hardware threads), DWS, every other knob at its
   default. *)
let config = { D.default_config with D.workers = 2; strategy = D.Coord.dws }

(* --- inputs --- *)

(* The named dataset [Gen.rmat ~seed:named_seed ~scale ~edges] with its
   vertices renumbered by a permutation drawn from [seed] (the identity
   when [seed = named_seed], so the default seed reproduces the named
   dataset).  Every seed thus gets the same graph shape, hence the same
   amount of work, while vertex numbering, and with it the hash
   partitioning, key order and drawn traffic, changes from seed to
   seed.  Returns the graph and the permutation. *)
let dataset ~named_seed ~seed ~scale ~edges =
  let g = D.Gen.rmat ~seed:named_seed ~scale ~edges () in
  let n = D.Graph.n g in
  let perm = Array.init n Fun.id in
  if seed <> named_seed then Dcd_util.Rng.shuffle (Dcd_util.Rng.create seed) perm;
  let relabelled = D.Graph.create ~n in
  D.Vec.iter (fun (u, v, w) -> D.Graph.add_edge relabelled ~w perm.(u) perm.(v)) (D.Graph.edges g);
  (relabelled, perm)

(* --- sampling --- *)

(* This machine's speed drifts by tens of percent over periods of a
   tenth of a second to seconds, so a median stays put between runs only
   when its samples span several seconds.  [repeat ~min ~span f] calls
   [f] at least [min] times and until [span] seconds have passed since
   the first call (at most 500 times), and returns its results in order. *)
let repeat ~min ~span f =
  let t0 = now () in
  let rec go n acc =
    if n >= 500 || (n >= min && now () -. t0 >= span) then List.rev acc
    else go (n + 1) (f () :: acc)
  in
  go 0 []

(* --- order statistics --- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "median of no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile; [None] unless at least ten samples lie
   beyond it, so a reported tail is never a single outlier. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  let idx = max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)) in
  if n = 0 || n - 1 - idx < 10 then None else Some a.(idx)

(* --- memory --- *)

let proc pid file = if pid = 0 then "/proc/self/" ^ file else Printf.sprintf "/proc/%d/%s" pid file

(* Resets the peak resident set of a process (pid 0: this one) to its
   current resident set, so the next reading covers only what runs in
   between. *)
let reset_peak_rss pid =
  try Out_channel.with_open_text (proc pid "clear_refs") (fun oc -> output_string oc "5")
  with Sys_error _ -> ()

(* VmHWM (peak resident set) of a process, in MB. *)
let peak_rss_mb pid =
  let path = proc pid "status" in
  In_channel.with_open_text path (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith ("no VmHWM in " ^ path)
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.)
        | Some _ -> scan ()
      in
      scan ())

(* --- answers --- *)

(* Order-independent fingerprint of a relation: its size plus a sum and
   an xor of mixed tuple hashes, so two answers agree only if they hold
   the same tuples (up to a hash collision). *)
type fingerprint = { size : int; sum : int; xor : int }

let empty_fp = { size = 0; sum = 0; xor = 0 }

let add_fp fp tup =
  let h = D.Tuple.hash tup in
  { size = fp.size + 1; sum = fp.sum + h; xor = fp.xor lxor D.Tuple.mix64 (h + 0x5bd1e995) }

let fp_of_vec v = D.Vec.fold add_fp empty_fp v

let fp_of_result result name = fp_of_vec (D.Parallel.relation_vec result name)

let fp_to_string fp = Printf.sprintf "%d tuples, sum %x, xor %x" fp.size fp.sum fp.xor

(* --- metrics --- *)

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }

let print_samples label xs =
  if List.length xs <= 20 then
    Printf.printf "  %s, in order: %s\n" label
      (String.concat " " (List.rev_map (Printf.sprintf "%.4g") xs))
  else
    let a = sorted xs in
    Printf.printf "  %s: n=%d, min %.4g, median %.4g, max %.4g\n" label (Array.length a) a.(0)
      (median xs)
      a.(Array.length a - 1)

let metric_line mt = Printf.printf "  %-34s %14.6f %s\n" mt.name mt.value mt.unit

(* Per-metric samples gathered across the traced iterations of a run;
   each layer metric is reported as the median of its samples. *)
module Samples = struct
  type t = (string, string * float list) Hashtbl.t (* name -> unit, samples *)

  let create () : t = Hashtbl.create 64

  let add (t : t) name unit v =
    let xs = match Hashtbl.find_opt t name with Some (_, xs) -> xs | None -> [] in
    Hashtbl.replace t name (unit, v :: xs)

  let get (t : t) name =
    match Hashtbl.find_opt t name with
    | Some (unit, xs) -> m name unit (median xs)
    | None -> failwith ("no samples for layer metric " ^ name)
end

(* The traced iteration as a span tree built from the timings taken
   around each call into a layer (and, inside the engine, from its
   Run_stats).  A span's self time is its duration minus its children's. *)
type span = { sname : string; dur : float; children : span list }

let leaf sname dur = { sname; dur; children = [] }

let rec self_times s =
  let child = List.fold_left (fun acc c -> acc +. c.dur) 0. s.children in
  (s.sname, s.dur -. child) :: List.concat_map self_times s.children

let print_spans title root =
  Printf.printf "%s: traced wall %.6f s; self time per layer:\n" title root.dur;
  List.iter (fun (n, v) -> Printf.printf "    %-32s %12.6f s\n" n v) (self_times root)

(* --- the result line --- *)

let json_number v =
  if not (Float.is_finite v) then failwith "metric is not a finite number";
  Printf.sprintf "%.17g" v

let emit ~attempted ~failed metrics =
  let body =
    List.map
      (fun mt ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" mt.name (json_number mt.value) mt.unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0) attempted failed (String.concat ", " body);
  flush stdout

let environment ~workload ~seed =
  Printf.printf "workload %s, seed %d; nproc %d, workers %d, strategy %s, ocaml %s\n" workload
    seed
    (Domain.recommended_domain_count ())
    config.D.workers
    (D.Coord.to_string config.D.strategy)
    Sys.ocaml_version
