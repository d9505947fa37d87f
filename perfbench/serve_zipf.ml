(* serve-zipf: a closed loop from one client over one unix-socket
   connection to a forked server (outcome store on, default settings:
   LRU of 128, one domain).  Each request submits one job and then sends
   [drain]; its latency runs from the submit being sent to the completion
   being received.  Job keys follow a seeded Zipf skew over 1000 distinct
   specs, several times the LRU, so cache hits, store hits and fresh
   executions all occur: the median is set by the hit path and the tail
   by executions. *)

open Ftagg
module L = Transport.Listener
module C = Transport.Client
module Frame = Transport.Frame
module Srv = Service.Server
module Job = Service.Job
module Cache = Service.Cache
module Scheduler = Service.Scheduler

let settings = Service.Reconfig.default
let distinct = 1000
let families = [| "grid"; "torus"; "random_regular:4" |]
let sizes = [| 36; 49; 64; 81; 100 |]

let job_json i =
  Printf.sprintf {|{"family":"%s","n":%d,"seed":%d,"failures":"random"}|} families.(i mod 3)
    sizes.(i / 3 mod 5) i

let submit_lines = Array.init distinct (fun i -> Printf.sprintf {|{"op":"submit","job":%s}|} (job_json i))
let drain_line = {|{"op":"drain"}|}

(* ---- the seeded key stream ---- *)

(* Zipf with exponent 1 over ranks, ranks mapped to specs by a seeded
   permutation so each seed has different hot keys. *)
let cdf =
  let w = Array.init distinct (fun r -> 1. /. float_of_int (r + 1)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map (fun x -> acc := !acc +. (x /. total); !acc) w

type keys = { rng : Random.State.t; perm : int array }

let keys ~seed =
  let rng = Random.State.make [| seed; 0x2f1b |] in
  let perm = Array.init distinct Fun.id in
  for i = distinct - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  { rng; perm }

let next k =
  let u = Random.State.float k.rng 1.0 in
  let rec search lo hi = if lo >= hi then lo else
      let mid = (lo + hi) / 2 in
      if cdf.(mid) >= u then search lo mid else search (mid + 1) hi
  in
  k.perm.(search 0 (distinct - 1))

(* ---- replies ---- *)

let parse_ok line =
  match Bench_io.of_string line with
  | Ok j when Bench_io.member "ok" j = Some (Bench_io.Bool true) -> Some j
  | _ -> None

(* The outcome a drain reply carries for the one job it completed,
   re-encoded compactly, provided it is marked correct. *)
let completion line =
  match Option.bind (parse_ok line) (Bench_io.member "completed") with
  | Some (Bench_io.List [ c ]) -> (
    match Bench_io.member "outcome" c with
    | Some o when Bench_io.member "correct" o = Some (Bench_io.Bool true) ->
      Ok (Bench_io.to_string ~indent:false o)
    | _ -> Error ("incorrect or missing outcome: " ^ line))
  | _ -> Error ("unexpected drain reply: " ^ line)

let spec_of i =
  match Result.bind (Bench_io.of_string (job_json i)) (Job.of_json ~settings) with
  | Ok s -> s
  | Error e -> failwith ("serve-zipf: bad job " ^ e)

let direct_outcome spec =
  Bench_io.to_string ~indent:false (Job.outcome_to_json (Job.execute spec).Job.outcome)

(* ---- the forked server ---- *)

type server = { pid : int; sock : string; store : string }

let spawn ~tag =
  Perf.ensure_dir Perf.out_dir;
  let sock = Filename.concat Perf.out_dir (tag ^ ".sock") in
  let store = Filename.concat Perf.out_dir (tag ^ ".store") in
  Perf.rm_rf sock;
  Perf.rm_rf store;
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    let code =
      try
        let server =
          Srv.create { Srv.settings; checkpoint_path = None; store_dir = Some store; name = "perfbench" }
        in
        match L.create { (L.config (L.Unix_sock sock)) with L.ctl = None } server with
        | Ok l -> L.run l
        | Error _ -> 2
      with _ -> 3
    in
    Unix._exit code
  | pid -> { pid; sock; store }

let rec waitpid_retry flags pid =
  try Unix.waitpid flags pid with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry flags pid

(* SIGTERM asks for a graceful drain; a server that has not exited after
   five seconds is killed.  Either way the child is reaped and its
   socket and store removed. *)
let stop s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let t0 = Perf.now_ns () in
  let rec reap () =
    match waitpid_retry [ Unix.WNOHANG ] s.pid with
    | 0, _ when Perf.secs_since t0 < 5. ->
      Unix.sleepf 0.001;
      reap ()
    | 0, _ ->
      (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (waitpid_retry [] s.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  reap ();
  Perf.rm_rf s.sock;
  Perf.rm_rf s.store

let wait_up s =
  let t0 = Perf.now_ns () in
  while not (C.probe (L.Unix_sock s.sock)) do
    (match waitpid_retry [ Unix.WNOHANG ] s.pid with
    | 0, _ -> ()
    | _ -> failwith "serve-zipf: the server exited during start-up");
    if Perf.secs_since t0 > 10. then failwith "serve-zipf: the server did not come up";
    Unix.sleepf 0.0002
  done

(* Start a server, time it from fork to the first successful probe, and
   run [f] over one connection to it; the server is stopped whatever
   happens. *)
let with_server ~tag f =
  let current = ref None in
  Fun.protect ~finally:(fun () -> Option.iter stop !current) (fun () ->
      let t0 = Perf.now_ns () in
      let s = spawn ~tag in
      current := Some s;
      wait_up s;
      let setup_s = Perf.secs_since t0 in
      let conn = match C.connect (L.Unix_sock s.sock) with Ok c -> c | Error e -> failwith e in
      Fun.protect ~finally:(fun () -> C.close conn) (fun () -> f s conn setup_s))

(* ---- the end-to-end run ---- *)

type served = {
  outcomes : (int, string) Hashtbl.t;  (** spec index -> the outcome served for it *)
  mutable problems : string list;
  mutable failed : int;
}

let record served key outcome =
  match Hashtbl.find_opt served.outcomes key with
  | None -> Hashtbl.replace served.outcomes key outcome
  | Some o when o = outcome -> ()
  | Some _ -> served.problems <- Printf.sprintf "serve-zipf: spec %d served two outcomes" key :: served.problems

(* One request over the socket: submit, then drain.  Returns the
   completion's outcome; counts a failure otherwise. *)
let request conn served ~check key =
  let reply =
    match C.request conn submit_lines.(key) with
    | Error e -> Error e
    | Ok ack when parse_ok ack = None -> Error ("submit refused: " ^ ack)
    | Ok _ -> ( match C.request conn drain_line with Error e -> Error e | Ok reply -> check reply)
  in
  match reply with
  | Ok outcome ->
    record served key outcome;
    true
  | Error e ->
    served.failed <- served.failed + 1;
    if served.failed <= 3 then served.problems <- ("serve-zipf: " ^ e) :: served.problems;
    false

(* Every distinct spec's served outcome against a direct execution. *)
let oracle served =
  Hashtbl.fold
    (fun key outcome acc ->
      if direct_outcome (spec_of key) = outcome then acc
      else Printf.sprintf "serve-zipf: spec %d served an outcome unlike a direct run" key :: acc)
    served.outcomes []

(* Requests per session.  Every session starts a fresh server with an
   empty cache and store, so the mix of hits, store hits and executions
   is the same however many sessions a run gets through: about a quarter
   of the requests execute, which puts the p99 among executions.  A
   session is long enough for its own p99. *)
let session_requests = 2000

(* The end-to-end run: sessions until [seconds] of request time have
   passed.  Set-up and peak RSS are medians over the sessions.  [check]
   turns a drain reply into the served outcome; tests replace it to
   plant a failing check. *)
let run ?(check = completion) ?(tag = Printf.sprintf "serve-%d" (Unix.getpid ())) ~seed ~seconds () =
  let ks = keys ~seed in
  let served = { outcomes = Hashtbl.create 1024; problems = []; failed = 0 } in
  let intervals = ref [] and busy = ref 0 and setups = ref [] and rss = ref [] in
  while float_of_int !busy /. 1e9 < seconds do
    let session = List.length !setups in
    with_server ~tag:(Printf.sprintf "%s-%d" tag session) (fun s conn setup_s ->
        let lat = ref [] in
        let t0 = Perf.now_ns () in
        for _ = 1 to session_requests do
          let key = next ks in
          let t = Perf.now_ns () in
          let ok = request conn served ~check key in
          if ok then lat := float_of_int (Perf.now_ns () - t) :: !lat
        done;
        let wall_ns = Perf.now_ns () - t0 in
        busy := !busy + wall_ns;
        let latencies_ns = Array.of_list !lat in
        intervals := { Perf.ops = Array.length latencies_ns; wall_ns; latencies_ns } :: !intervals;
        setups := setup_s :: !setups;
        rss := float_of_int (Option.value (Perf.vmhwm_kib (string_of_int s.pid)) ~default:0) :: !rss)
  done;
  let metrics, few =
    Perf.end_to_end ~intervals:!intervals
      ~rss_kib:(int_of_float (Perf.median !rss))
      ~setup_s:(Perf.median !setups)
  in
  let attempted = session_requests * List.length !setups in
  Printf.printf "serve-zipf: %d sessions of %d requests, %d distinct specs\n" (List.length !setups)
    session_requests (Hashtbl.length served.outcomes);
  let problems = List.rev served.problems @ oracle served @ few in
  { Perf.correct = problems = []; attempted; failed = served.failed; problems; metrics }

(* ---- the traced pass ---- *)

(* Requests replayed in the traced pass, once over the socket and once
   through each layer in-process. *)
let traced_requests = 1500

let layers ~trace ~seed =
  let span ~req name f = Perf.Trace.span trace ~req name f in
  let served = { outcomes = Hashtbl.create 1024; problems = []; failed = 0 } in
  let t0 = Perf.now_ns () in
  (* over the socket: only the client's view *)
  let ks = keys ~seed in
  with_server ~tag:(Printf.sprintf "trace-%d" (Unix.getpid ())) (fun _ conn _ ->
      for k = 0 to traced_requests - 1 do
        let key = next ks in
        span ~req:k "request" (fun () ->
            let ack = span ~req:k "client.submit" (fun () -> C.request conn submit_lines.(key)) in
            let reply =
              span ~req:k "client.drain" (fun () ->
                  match ack with Ok _ -> C.request conn drain_line | Error e -> Error e)
            in
            match reply with
            | Ok r -> (match completion r with Ok o -> record served key o | Error e -> served.problems <- e :: served.problems)
            | Error e -> served.problems <- e :: served.problems)
      done);
  (* in-process: the same stream through each layer *)
  let dir = Filename.concat Perf.out_dir (Printf.sprintf "trace-%d-inproc" (Unix.getpid ())) in
  Perf.rm_rf dir;
  Perf.ensure_dir dir;
  Fun.protect ~finally:(fun () -> Perf.rm_rf dir) @@ fun () ->
  let srv =
    Srv.create
      { Srv.settings; checkpoint_path = None; store_dir = Some (Filename.concat dir "srv"); name = "perfbench" }
  in
  let store = match Store.open_ ~dir:(Filename.concat dir "mirror") () with Ok s -> s | Error e -> failwith e in
  Fun.protect ~finally:(fun () -> Store.close store) @@ fun () ->
  let cache = Cache.create ~capacity:settings.Service.Reconfig.cache_capacity () in
  let framer = Frame.create ~max_line:65536 in
  let ks = keys ~seed in
  let req_bytes = ref 0 and reply_bytes = ref 0 in
  let minor_words = ref 0. and promoted_words = ref 0. in
  let node_rounds = ref 0 in
  let direct = Hashtbl.create 1024 in
  for k = 0 to traced_requests - 1 do
    let key = next ks in
    let req = traced_requests + k in
    span ~req "request" (fun () ->
        let line = submit_lines.(key) in
        let wire = line ^ "\n" ^ drain_line ^ "\n" in
        req_bytes := !req_bytes + String.length wire;
        ignore (span ~req "transport.frame_feed" (fun () -> Frame.feed_string framer wire));
        let json = span ~req "json.parse" (fun () -> Bench_io.of_string line) in
        let spec =
          span ~req "job.decode" (fun () ->
              match json with
              | Ok j -> Job.of_json ~settings (Option.value (Bench_io.member "job" j) ~default:Bench_io.Null)
              | Error e -> Error e)
        in
        let spec = match spec with Ok s -> s | Error e -> failwith e in
        let ck = span ~req "job.key" (fun () -> Job.cache_key spec) in
        let hit = span ~req "cache.find" (fun () -> Cache.find cache ck) <> None in
        let ack = span ~req "server.submit" (fun () -> Srv.handle srv line) in
        let reply =
          span ~req (if hit then "server.drain_hit" else "server.drain_miss") (fun () -> Srv.handle srv drain_line)
        in
        reply_bytes := !reply_bytes + String.length ack + String.length reply + 2;
        (match Bench_io.of_string reply with
        | Ok j -> ignore (span ~req "json.encode" (fun () -> Bench_io.to_string ~indent:false j))
        | Error e -> failwith e);
        (match completion reply with
        | Ok o -> record served key o
        | Error e -> served.problems <- e :: served.problems);
        if not hit then begin
          Cache.add cache ck ();
          match span ~req "store.find" (fun () -> Store.find store ck) with
          | Some _ -> ()
          | None ->
            let executed, gc = span ~req "engine.execute" (fun () -> Perf.gc_measure (fun () -> Job.execute spec)) in
            minor_words := !minor_words +. gc.Perf.minor_words;
            promoted_words := !promoted_words +. gc.Perf.promoted_words;
            node_rounds := !node_rounds + (spec.Job.n * executed.Job.outcome.Job.rounds);
            let oj = Job.outcome_to_json executed.Job.outcome in
            Hashtbl.replace direct key (Bench_io.to_string ~indent:false oj);
            span ~req "store.add" (fun () -> Store.add store ck oj)
        end)
  done;
  let wall_ns = Perf.now_ns () - t0 in
  (* the direct executions are the oracle for everything served *)
  let problems =
    Hashtbl.fold
      (fun key o acc ->
        match Hashtbl.find_opt direct key with
        | Some d when d = o -> acc
        | Some _ -> Printf.sprintf "serve-zipf: spec %d served an outcome unlike a direct run" key :: acc
        | None -> Printf.sprintf "serve-zipf: spec %d was never executed directly" key :: acc)
      served.outcomes served.problems
  in
  let sched = Srv.scheduler srv in
  let cs = Scheduler.cache_stats sched in
  let l2_hits = match Scheduler.store_stats sched with Some s -> s.Store.s_hits | None -> 0 in
  let med name = Perf.Trace.median_ns trace name in
  let per n x = float_of_int x /. float_of_int (max 1 n) in
  let nr = float_of_int (max 1 !node_rounds) in
  (* the socket request minus the in-process hit path: the transport's share *)
  let socket_p50 =
    Perf.median
      (List.filter_map
         (fun s -> if s.Perf.Trace.name = "request" && s.req < traced_requests then Some (float_of_int (s.stop - s.start)) else None)
         (Perf.Trace.spans trace))
  in
  ( wall_ns,
    problems,
    [
      Perf.metric "transport.frame_feed_ns" "ns" (med "transport.frame_feed");
      Perf.metric "transport.req_bytes" "B" (per traced_requests !req_bytes);
      Perf.metric "transport.reply_bytes" "B" (per traced_requests !reply_bytes);
      Perf.metric "json.parse_ns" "ns" (med "json.parse");
      Perf.metric "json.encode_ns" "ns" (med "json.encode");
      Perf.metric "job.decode_ns" "ns" (med "job.decode");
      Perf.metric "job.key_ns" "ns" (med "job.key");
      Perf.metric "cache.find_ns" "ns" (med "cache.find");
      Perf.metric "server.submit_us" "us" (med "server.submit" /. 1e3);
      Perf.metric "server.drain_hit_us" "us" (med "server.drain_hit" /. 1e3);
      Perf.metric "server.drain_miss_us" "us" (med "server.drain_miss" /. 1e3);
      Perf.metric "serve.unattributed_us" "us"
        ((socket_p50 -. med "server.submit" -. med "server.drain_hit") /. 1e3);
      Perf.metric "cache.hit_ratio" "ratio" (per (cs.Cache.hits + cs.Cache.misses) cs.Cache.hits);
      Perf.metric "cache.evictions" "count" (float_of_int cs.Cache.evictions);
      Perf.metric "store.find_us" "us" (med "store.find" /. 1e3);
      Perf.metric "store.add_us" "us" (med "store.add" /. 1e3);
      Perf.metric "store.hit_ratio" "ratio" (per cs.Cache.misses l2_hits);
      Perf.metric "engine.execute_ms" "ms" (med "engine.execute" /. 1e6);
      Perf.metric "engine.ns_per_node_round" "ns" (float_of_int (Perf.Trace.total_ns trace "engine.execute") /. nr);
      Perf.metric "engine.minor_words_per_node_round" "words" (!minor_words /. nr);
      Perf.metric "engine.promoted_words_per_node_round" "words" (!promoted_words /. nr);
    ] )
