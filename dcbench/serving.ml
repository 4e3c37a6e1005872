(* The serving workload: clients of `dcdatalog serve` send update batches
   and read while those batches land. *)

open Common
module Rng = Dcd_util.Rng
module Serve = Dcd_serve.Serve

let name = "serve-tc"

(* rmat-400 (Datasets.rmat 400). *)
let scale = 9
let edges = 4000
let default_seed = 507

let read_rate = 200. (* reads per second, open loop *)
let scan_share = 10 (* one read in [scan_share] is a prefix scan *)
let small_arcs = 20 (* ~0.5 % of the EDB: incremental maintenance wins *)
let bulk_arcs = 400 (* ~10 % of the EDB: a cold recompute wins *)
(* seconds between bulk batches; the first comes at half the interval,
   or at half the window when that is shorter *)
let bulk_interval = 10.
let setups = 3
(* Cold Dcdatalog.run of the served query, for [cold_span] seconds (at
   least 5 runs) before the timed window and again after it: their walls
   are query_p50_s, and every answer must equal the server's. *)
let cold_span = 4.
let work_dir = ".dcbench"

(* --- the EDB and its update batches --- *)

type edb_state = {
  arcs : (int * int) array; (* the generated EDB *)
  present : (int * int, unit) Hashtbl.t;
  vertices : int;
}

let generate ~seed =
  let g, _ = dataset ~named_seed:default_seed ~seed ~scale ~edges in
  let arcs = D.Vec.to_array (D.Vec.map (fun (u, v, _) -> (u, v)) (D.Graph.edges g)) in
  let present = Hashtbl.create (Array.length arcs) in
  Array.iter (fun a -> Hashtbl.replace present a ()) arcs;
  { arcs; present; vertices = 1 lsl scale }

(* Half deletions of generated arcs, half insertions of new ones.  The
   writer sends each batch and then its inverse, so the base state
   always returns to the generated EDB before the next batch. *)
type batch = { dels : (int * int) array; ins : (int * int) array }

let pick s rng ~size =
  let chosen = Hashtbl.create size in
  let rec draw gen ok =
    let a = gen () in
    if ok a && not (Hashtbl.mem chosen a) then begin
      Hashtbl.add chosen a ();
      a
    end
    else draw gen ok
  in
  let half = size / 2 in
  let dels =
    Array.init half (fun _ ->
        draw (fun () -> s.arcs.(Rng.int rng (Array.length s.arcs))) (fun _ -> true))
  in
  let ins =
    Array.init half (fun _ ->
        draw
          (fun () -> (Rng.int rng s.vertices, Rng.int rng s.vertices))
          (fun a -> not (Hashtbl.mem s.present a)))
  in
  { dels; ins }

let update_line ~forward b =
  let atom sign (u, v) = Printf.sprintf "%carc(%d,%d)" sign u v in
  let d, i = if forward then ('-', '+') else ('+', '-') in
  "update "
  ^ String.concat " "
      (List.map (atom d) (Array.to_list b.dels) @ List.map (atom i) (Array.to_list b.ins))

let updates ~forward b =
  let del t = D.Maintain.Delete ("arc", [| fst t; snd t |]) in
  let ins t = D.Maintain.Insert ("arc", [| fst t; snd t |]) in
  let d, i = if forward then (del, ins) else (ins, del) in
  Array.to_list (Array.map d b.dels) @ Array.to_list (Array.map i b.ins)

(* The base relation after applying [b] forward to the generated EDB. *)
let edb_after s b =
  let gone = Hashtbl.create 64 in
  Array.iter (fun a -> Hashtbl.replace gone a ()) b.dels;
  let v = D.Vec.create () in
  Array.iter (fun ((x, y) as a) -> if not (Hashtbl.mem gone a) then D.Vec.push v [| x; y |]) s.arcs;
  Array.iter (fun (x, y) -> D.Vec.push v [| x; y |]) b.ins;
  [ ("arc", v) ]

let read_line s rng =
  let u, v =
    if Rng.bool rng then s.arcs.(Rng.int rng (Array.length s.arcs))
    else (Rng.int rng s.vertices, Rng.int rng s.vertices)
  in
  if Rng.int rng scan_share = 0 then (Printf.sprintf "scan tc(%d)" u, true)
  else (Printf.sprintf "lookup tc(%d,%d)" u v, false)

(* --- the protocol --- *)

let find_sub s pat =
  let n = String.length s and k = String.length pat in
  let rec go i =
    if i + k > n then None else if String.sub s i k = pat then Some i else go (i + 1)
  in
  go 0

(* The integer after [key=] in a reply line. *)
let field line key =
  match find_sub line (" " ^ key ^ "=") with
  | None -> None
  | Some i -> (
    let j = i + String.length key + 2 in
    let e = ref j in
    while !e < String.length line && line.[!e] >= '0' && line.[!e] <= '9' do
      incr e
    done;
    int_of_string_opt (String.sub line j (!e - j)))

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     Unix.close fd;
     raise e);
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let close_conn c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc

(* Sends one request and reads its whole reply; a scan's reply carries
   [count=N] more lines. *)
let request c ~scan line =
  send c line;
  let head = input_line c.ic in
  let extra =
    if scan && String.starts_with ~prefix:"ok" head then
      Option.value ~default:0 (field head "count")
    else 0
  in
  (head, List.init extra (fun _ -> input_line c.ic))

(* --- the server process --- *)

type server = { pid : int; stdin_w : Unix.file_descr; mutable reaped : bool }

let spawn ~exe ~edges_file ~socket ~log =
  let stdin_r, stdin_w = Unix.pipe ~cloexec:true () in
  let logfd = Unix.openfile log [ Unix.O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644 in
  let argv =
    [| exe; "serve"; "--query"; "tc"; "--edges"; edges_file; "--workers"; "2"; "--socket"; socket |]
  in
  let pid = Unix.create_process exe argv stdin_r logfd logfd in
  Unix.close stdin_r;
  Unix.close logfd;
  { pid; stdin_w; reaped = false }

let exited srv =
  srv.reaped
  || (match Unix.waitpid [ Unix.WNOHANG ] srv.pid with
     | 0, _ -> false
     | _ -> true
     | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true)
     && begin
       srv.reaped <- true;
       true
     end

(* Connects once the socket answers [version]. *)
let await_ready srv ~socket =
  let deadline = now () +. 120. in
  let rec go () =
    match connect socket with
    | c ->
      let head, _ = request c ~scan:false "version" in
      if not (String.starts_with ~prefix:"ok" head) then failwith ("server answered " ^ head);
      c
    | exception Unix.Unix_error _ ->
      if exited srv then failwith "dcdatalog serve exited during start-up";
      if now () > deadline then failwith "dcdatalog serve did not answer within 120 s";
      Unix.sleepf 0.002;
      go ()
  in
  go ()

(* End of input on its stdin shuts the server down; it is killed if it
   has not exited within 30 s. *)
let stop srv =
  (try Unix.close srv.stdin_w with Unix.Unix_error _ -> ());
  let deadline = now () +. 30. in
  while (not (exited srv)) && now () < deadline do
    Unix.sleepf 0.01
  done;
  if not srv.reaped then begin
    (try Unix.kill srv.pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] srv.pid);
    srv.reaped <- true
  end

(* --- tallies --- *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable small : float list; (* small-batch update round trips, s *)
  mutable bulk : float list;
  mutable reads : float list; (* from due time to full reply, s *)
  mutable late : float list; (* send time - due time, s *)
}

let fail t fmt =
  Printf.ksprintf
    (fun msg ->
      t.failed <- t.failed + 1;
      Printf.printf "FAILED: %s\n%!" msg)
    fmt

(* --- the open-loop reader --- *)

(* Sends reads on a fixed schedule at [read_rate] without waiting for
   earlier replies (the protocol answers a connection's requests in
   order), so a slow reply delays no later send.  Each read is timed
   from when it was due to its full reply; [late] records how far the
   sends themselves fell behind the schedule.  Runs on its own domain
   and connection, driven by select. *)
let reader s fd rng ~t0 ~t_end (t : tally) mutex =
  let buf = Bytes.create 65536 and partial = Buffer.create 256 in
  let lines = Queue.create () in
  let fill () =
    let n = Unix.read fd buf 0 (Bytes.length buf) in
    if n = 0 then raise End_of_file;
    for i = 0 to n - 1 do
      match Bytes.get buf i with
      | '\n' ->
        Queue.push (Buffer.contents partial) lines;
        Buffer.clear partial
      | ch -> Buffer.add_char partial ch
    done
  in
  let outstanding = Queue.create () in
  let versions = ref 0 and body = ref 0 in
  let finish head =
    let due, sent, line = Queue.pop outstanding in
    let fin = now () in
    Mutex.protect mutex (fun () ->
        t.attempted <- t.attempted + 1;
        t.reads <- (fin -. due) :: t.reads;
        t.late <- (sent -. due) :: t.late;
        match field head "version" with
        | Some v when String.starts_with ~prefix:"ok" head ->
          if v < !versions then fail t "read saw version %d after %d" v !versions;
          versions := v
        | _ -> fail t "%s -> %s" line head)
  in
  let head = ref "" in
  let consume () =
    while not (Queue.is_empty lines) do
      let line = Queue.pop lines in
      if !body > 0 then begin
        decr body;
        if !body = 0 then finish !head
      end
      else begin
        let _, _, request = Queue.peek outstanding in
        head := line;
        body :=
          if String.starts_with ~prefix:"scan" request && String.starts_with ~prefix:"ok" line then
            Option.value ~default:0 (field line "count")
          else 0;
        if !body = 0 then finish line
      end
    done
  in
  let rec loop i =
    let due = t0 +. (float_of_int i /. read_rate) in
    let sending = due < t_end in
    if sending || not (Queue.is_empty outstanding) then begin
      let t_now = now () in
      if (not sending) && t_now > t_end +. 60. then
        failwith "reads unanswered 60 s after the window";
      if sending && t_now >= due then begin
        let line, _ = read_line s rng in
        let msg = Bytes.of_string (line ^ "\n") in
        ignore (Unix.write fd msg 0 (Bytes.length msg));
        Queue.push (due, t_now, line) outstanding;
        loop (i + 1)
      end
      else begin
        let timeout = if sending then due -. t_now else 1. in
        (match Unix.select [ fd ] [] [] timeout with
         | [], _, _ -> ()
         | _ ->
           fill ();
           consume ());
        loop i
      end
    end
  in
  loop 0

(* --- the closed-loop writer --- *)

(* One update round trip; the reply must show exactly the batch's base
   changes and the next snapshot version. *)
let update c (t : tally) mutex ~forward ~expect_version b =
  let line = update_line ~forward b in
  let (head, _), dt = time (fun () -> request c ~scan:false line) in
  let half = Array.length b.dels in
  let base =
    match find_sub head " base=" with
    | Some i -> (
      let rest = String.sub head (i + 1) (String.length head - i - 1) in
      try Scanf.sscanf rest "base=+%d/-%d" (fun a d -> Some (a, d))
      with Scanf.Scan_failure _ | End_of_file | Failure _ -> None)
    | None -> None
  in
  Mutex.protect mutex (fun () ->
      t.attempted <- t.attempted + 1;
      if base <> Some (half, half) || field head "version" <> Some expect_version then
        fail t "update (%d arcs) answered %s" (2 * half) head);
  dt

let parse_scan lines =
  List.fold_left
    (fun fp line ->
      match Serve.parse_atom line with
      | "tc", Some tup -> add_fp fp tup
      | _ -> failwith ("unexpected scan line " ^ line))
    empty_fp lines

(* --- traced, in-process layers --- *)

(* Mean seconds per call over [blocks] blocks of [per] calls, median
   over blocks (single calls are too short for the clock). *)
let per_call ~blocks ~per f =
  median
    (List.init blocks (fun _ ->
         let (), dt =
           time (fun () ->
               for _ = 1 to per do
                 f ()
               done)
         in
         dt /. float_of_int per))

type mcount = {
  maintain_s : float;
  join_s : float;
  overdeleted : int;
  rederived : int;
  changed : int;
  recomputed : int;
}

let mcount session =
  let m = (D.Session.stats session).D.Run_stats.maintenance in
  {
    maintain_s = m.maintain_s;
    join_s = Array.fold_left (fun acc w -> acc +. w.D.Run_stats.mw_join_s) 0. m.mworkers;
    overdeleted = m.overdeleted;
    rederived = m.rederived;
    changed = m.inserted + m.deleted;
    recomputed = m.recomputed_strata;
  }

(* The session and serve layers, called in process on a session over the
   same EDB: idle reads (no writer running), update batches through
   Serve.handle and Session.apply_batch, and the maintenance counters of
   each batch.  These are printed, not returned: the one-shot workloads
   have no such layers, and the result line carries only metrics every
   workload measures. *)
let in_process_layers s (t : tally) prepared ~edb ~rng =
  let out = Samples.create () in
  let add = Samples.add out in
  let session, open_s = time (fun () -> D.open_session prepared ~edb ~config ()) in
  add "session.open_s" "s" open_s;
  let key () =
    let u, v = s.arcs.(Rng.int rng (Array.length s.arcs)) in
    if Rng.bool rng then [| u; v |] else [| Rng.int rng s.vertices; Rng.int rng s.vertices |]
  in
  add "session.lookup_us" "us"
    (1e6
    *. per_call ~blocks:20 ~per:100 (fun () -> ignore (D.Session.lookup session "tc" (key ()))));
  add "session.scan_us" "us"
    (1e6
    *. per_call ~blocks:20 ~per:5 (fun () ->
           ignore (D.Session.scan session ~prefix:[| (key ()).(0) |] "tc")));
  let handle line =
    t.attempted <- t.attempted + 1;
    match Serve.handle session line with
    | reply :: _ when String.starts_with ~prefix:"ok" reply -> ()
    | reply -> fail t "in process: %s -> %s" line (String.concat " / " reply)
  in
  add "serve.lookup_us" "us"
    (1e6
    *. per_call ~blocks:20 ~per:100 (fun () ->
           let k = key () in
           handle (Printf.sprintf "lookup tc(%d,%d)" k.(0) k.(1))));
  add "serve.scan_us" "us"
    (1e6
    *. per_call ~blocks:20 ~per:5 (fun () -> handle (Printf.sprintf "scan tc(%d)" (key ()).(0))));
  let measured kind f =
    let c0 = mcount session in
    let (), dt = time f in
    let c1 = mcount session in
    let maintain = c1.maintain_s -. c0.maintain_s in
    let count name f =
      add (Printf.sprintf "maintain.%s.%s" name kind) "count" (float_of_int (f c1 - f c0))
    in
    add ("maintain.apply_s." ^ kind) "s" maintain;
    add ("maintain.join_s." ^ kind) "s" (c1.join_s -. c0.join_s);
    add ("self.maintain_s." ^ kind) "s" (maintain -. (c1.join_s -. c0.join_s));
    count "overdeleted" (fun c -> c.overdeleted);
    count "rederived" (fun c -> c.rederived);
    count "derived_changed" (fun c -> c.changed);
    count "recomputed_strata" (fun c -> c.recomputed);
    let overdeleted = c1.overdeleted - c0.overdeleted in
    add ("maintain.rederive_ratio." ^ kind) "ratio"
      (if overdeleted = 0 then 0.
       else float_of_int (c1.rederived - c0.rederived) /. float_of_int overdeleted);
    (dt, maintain)
  in
  for _ = 1 to 20 do
    let b = pick s rng ~size:small_arcs in
    let dt, maintain = measured "small" (fun () -> handle (update_line ~forward:true b)) in
    add "serve.update_s" "s" dt;
    add "self.serve_session_s" "s" (dt -. maintain);
    let dt, maintain =
      measured "small" (fun () -> ignore (D.Session.apply_batch session (updates ~forward:false b)))
    in
    t.attempted <- t.attempted + 1;
    add "session.apply_s" "s" dt;
    add "session.publish_s" "s" (dt -. maintain)
  done;
  let b = pick s rng ~size:bulk_arcs in
  List.iter
    (fun forward ->
      t.attempted <- t.attempted + 1;
      ignore
        (measured "bulk" (fun () -> ignore (D.Session.apply_batch session (updates ~forward b)))))
    [ true; false ];
  D.Session.close session;
  out

let serving_layer_names =
  [ "session.open_s" ]
  @ List.concat_map
      (fun base -> [ base ^ ".small"; base ^ ".bulk" ])
      [
        "maintain.apply_s"; "maintain.join_s"; "maintain.overdeleted"; "maintain.rederived";
        "maintain.rederive_ratio"; "maintain.derived_changed"; "maintain.recomputed_strata";
      ]
  @ [
      "session.apply_s"; "session.publish_s"; "session.lookup_us"; "session.scan_us";
      "serve.lookup_us"; "serve.scan_us"; "serve.update_s";
    ]

(* --- the workload --- *)

let print_median label ~unit ~scale xs =
  match xs with
  | [] -> Printf.printf "  %-34s            n/a (no samples)\n" label
  | _ -> Printf.printf "  %-34s %14.6f %s (n=%d)\n" label (scale *. median xs) unit (List.length xs)

let print_pct label ~unit ~scale p xs =
  match percentile p xs with
  | Some v -> Printf.printf "  %-34s %14.6f %s (n=%d)\n" label (scale *. v) unit (List.length xs)
  | None ->
    Printf.printf "  %-34s            n/a (n=%d: fewer than 10 samples beyond it)\n" label
      (List.length xs)

let run ~exe ~seed ~seconds ~trace =
  environment ~workload:name ~seed;
  if not (Sys.file_exists exe) then failwith ("no server executable at " ^ exe);
  if not (Sys.file_exists work_dir) then Sys.mkdir work_dir 0o755;
  let file ext = Filename.concat work_dir (Printf.sprintf "serve-%d.%s" (Unix.getpid ()) ext) in
  let edges_file = file "edges" and socket = file "sock" and log = file "log" in
  let t = { attempted = 0; failed = 0; small = []; bulk = []; reads = []; late = [] } in
  let mutex = Mutex.create () in
  let samples = Samples.create () in
  let server = ref None in
  let conns = ref [] in
  let shutdown () =
    List.iter close_conn !conns;
    conns := [];
    Option.iter stop !server;
    server := None
  in
  let cleanup () =
    shutdown ();
    List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ edges_file; socket; log ]
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  (* set-up: seed -> EDB file -> prepared program -> server answering *)
  let setup_times = ref [] in
  let last = ref None in
  for _ = 1 to setups do
    shutdown ();
    last := None;
    let t0 = now () in
    let s, gen = time (fun () -> generate ~seed) in
    Out_channel.with_open_text edges_file (fun oc ->
        Array.iter (fun (u, v) -> Printf.fprintf oc "%d %d\n" u v) s.arcs);
    let prepared =
      if trace then begin
        Samples.add samples "workload.gen_s" "s" gen;
        fst (Engine_trace.traced_prepare samples D.Queries.tc.source)
      end
      else Engine_trace.prepare D.Queries.tc.source
    in
    let srv = spawn ~exe ~edges_file ~socket ~log in
    server := Some srv;
    close_conn (await_ready srv ~socket);
    setup_times := (now () -. t0) :: !setup_times;
    last := Some (s, prepared)
  done;
  let s, prepared = Option.get !last in
  let srv = Option.get !server in
  let base_edb = [ ("arc", D.Vec.of_array (Array.map (fun (u, v) -> [| u; v |]) s.arcs)) ] in
  Printf.printf "input: %d arc tuples; server pid %d\n" (Array.length s.arcs) srv.pid;
  let serving_layers =
    if trace then Some (in_process_layers s t prepared ~edb:base_edb ~rng:(Rng.create (seed + 3)))
    else None
  in
  let writer = connect socket and reader_conn = connect socket in
  conns := [ writer; reader_conn ];
  let untraced = ref [] and traced = ref [] and last_span = ref None in
  let cold_runs ~edb ~lines =
    let expected = parse_scan lines in
    let cold f =
      Gc.full_major ();
      let result, wall = f () in
      t.attempted <- t.attempted + 1;
      if fp_of_result result "tc" <> expected then fail t "a cold run disagrees with the server";
      wall
    in
    ignore
    @@ repeat ~min:5 ~span:cold_span (fun () ->
           let run () = Engine_trace.run prepared ~edb in
           untraced := cold (fun () -> time run) :: !untraced;
           if trace then
             traced :=
               cold (fun () ->
                   let result, wall, span = Engine_trace.traced_run samples prepared ~edb in
                   last_span := Some span;
                   (result, wall))
               :: !traced)
  in
  cold_runs ~edb:base_edb ~lines:(snd (request writer ~scan:true "scan tc"));
  let socket_lookup_us =
    if trace then begin
      let rng = Rng.create (seed + 4) in
      Some
        (1e6
        *. median
             (List.init 500 (fun _ ->
                  let u, v = s.arcs.(Rng.int rng (Array.length s.arcs)) in
                  let line = Printf.sprintf "lookup tc(%d,%d)" u v in
                  snd (time (fun () -> request writer ~scan:false line)))))
    end
    else None
  in
  (* the timed window: open-loop reader beside the closed-loop writer *)
  let version =
    match field (fst (request writer ~scan:false "version")) "version" with
    | Some v -> ref v
    | None -> failwith "the server did not report its version"
  in
  let t0 = now () in
  let t_end = t0 +. float_of_int seconds in
  let reader_exn = ref None in
  (* the reader gets a domain of its own, so the writer's work in this
     process never delays its schedule *)
  let reader_domain =
    Domain.spawn (fun () ->
        try reader s reader_conn.fd (Rng.create (seed + 1)) ~t0 ~t_end t mutex
        with e -> reader_exn := Some e)
  in
  let wrng = Rng.create (seed + 2) in
  let apply ~forward b =
    incr version;
    update writer t mutex ~forward ~expect_version:!version b
  in
  let next_bulk = ref (t0 +. (Float.min bulk_interval (float_of_int seconds) /. 2.)) in
  while now () < t_end do
    if now () >= !next_bulk then begin
      next_bulk := !next_bulk +. bulk_interval;
      let b = pick s wrng ~size:bulk_arcs in
      t.bulk <- apply ~forward:true b :: t.bulk;
      t.bulk <- apply ~forward:false b :: t.bulk
    end
    else begin
      let b = pick s wrng ~size:small_arcs in
      t.small <- apply ~forward:true b :: t.small;
      t.small <- apply ~forward:false b :: t.small
    end
  done;
  Domain.join reader_domain;
  Option.iter raise !reader_exn;
  (* after the window: one state right after a bulk batch, and a final
     state one small batch away from the generated EDB *)
  let bulk_batch = pick s wrng ~size:bulk_arcs in
  ignore (apply ~forward:true bulk_batch);
  let bulk_version = !version in
  let bulk_head, bulk_lines = request writer ~scan:true "scan tc" in
  ignore (apply ~forward:false bulk_batch);
  let final_batch = pick s wrng ~size:small_arcs in
  ignore (apply ~forward:true final_batch);
  let final_head, final_lines = request writer ~scan:true "scan tc" in
  let rss = peak_rss_mb srv.pid in
  shutdown ();
  (* the scans against cold runs over the same EDB *)
  t.attempted <- t.attempted + 1;
  let got = parse_scan bulk_lines in
  let want = fp_of_result (Engine_trace.run prepared ~edb:(edb_after s bulk_batch)) "tc" in
  if field bulk_head "version" <> Some bulk_version || got <> want then
    fail t "after a bulk batch: server %s (%s), cold run %s" bulk_head (fp_to_string got)
      (fp_to_string want);
  t.attempted <- t.attempted + 1;
  if field final_head "version" <> Some !version then fail t "final scan answered %s" final_head;
  cold_runs ~edb:(edb_after s final_batch) ~lines:final_lines;
  let e2e =
    [
      m "setup_s" "s" (median !setup_times);
      m "query_p50_s" "s" (median !untraced);
      m "peak_rss_mb" "MB" rss;
    ]
  in
  Printf.printf "end-to-end (%d set-ups, %d cold runs, %d small and %d bulk updates, %d reads):\n"
    setups (List.length !untraced) (List.length t.small) (List.length t.bulk) (List.length t.reads);
  List.iter metric_line e2e;
  print_samples "set-up walls (s)" !setup_times;
  print_samples "cold run walls (s)" !untraced;
  print_median "update_p50_s" ~unit:"s" ~scale:1. t.small;
  print_pct "update_p90_s" ~unit:"s" ~scale:1. 0.9 t.small;
  print_median "bulk_update_p50_s" ~unit:"s" ~scale:1. t.bulk;
  print_median "read_p50_ms" ~unit:"ms" ~scale:1000. t.reads;
  print_pct "read_p99_ms" ~unit:"ms" ~scale:1000. 0.99 t.reads;
  Printf.printf "  %-34s %14.6f (%d failed / %d attempted)\n" "error_rate"
    (float_of_int t.failed /. float_of_int t.attempted)
    t.failed t.attempted;
  print_pct "loadgen.late_p99_ms" ~unit:"ms" ~scale:1000. 0.99 t.late;
  let metrics =
    if not trace then e2e
    else begin
      let layers = Engine_trace.layer_metrics samples ~traced:!traced ~untraced:!untraced in
      Printf.printf "per layer (cold runs: medians of %d traced runs):\n" (List.length !traced);
      List.iter metric_line layers;
      let sl = Option.get serving_layers in
      Printf.printf "serving layers (in process, idle reads, %d-arc and %d-arc batches):\n"
        small_arcs bulk_arcs;
      List.iter (fun n -> metric_line (Samples.get sl n)) serving_layer_names;
      let handle_us = (Samples.get sl "serve.lookup_us").value in
      Option.iter
        (fun us -> metric_line (m "serve.transport_us" "us" (us -. handle_us)))
        socket_lookup_us;
      Printf.printf "small update, self time per layer (medians over batches):\n";
      List.iter
        (fun n -> metric_line (Samples.get sl n))
        [
          "self.serve_session_s"; "session.publish_s"; "self.maintain_s.small";
          "maintain.join_s.small";
        ];
      Option.iter (print_spans "last traced cold Dcdatalog.run") !last_span;
      layers
    end
  in
  (t.attempted, t.failed, metrics)
