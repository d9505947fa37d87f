(* scale-agg: AGG on a streamed random-regular(4) CSR graph of 100k nodes
   through the partitioned executor at one domain.  No service or chaos
   code runs.  Every node steps every round but only a few receive
   anything, which is what frontier-driven rounds target.  Two domains
   are measured in the traced pass only: on a two-CPU host their run
   time depends on whatever else the host schedules, too much for an
   end-to-end figure. *)

open Ftagg

let n = 100_000
let spec = Bigraph.Random_regular 4

(* Set-up is repeated and its median reported, so one slow build does
   not move the figure. *)
let setup_repeats = 5

type prep = { graph : Bigraph.t; params : Params.t }

let prepare ~seed =
  let graph = Bigraph.build spec ~n ~seed in
  (* Unit inputs keep the message width flat, so the run measures the
     executor rather than integer widths. *)
  { graph; params = Scale_run.params ~graph ~inputs:(Array.make n 1) () }

type pass = {
  result : Agg.result;
  cc : int;
  bits : int;
  rounds : int;
  wall_ns : int;
  round_ns : int list;  (** duration of each executed round *)
}

(* One AGG execution.  The protocol's [step] is wrapped to stamp the
   first step of each round; consecutive stamps give round durations
   without touching the executor. *)
let run_pass ?meter ?(wrap = fun p -> p) ~domains ~seed prep =
  let base = wrap (Scale_run.protocol prep.params) in
  let max_rounds = Agg.duration prep.params in
  let stamps = Array.make (max_rounds + 2) 0 in
  let last = Atomic.make 0 in
  let step ~round ~me ~state ~inbox =
    let l = Atomic.get last in
    if round > l && Atomic.compare_and_set last l round then stamps.(round) <- Perf.now_ns ();
    base.Engine.step ~round ~me ~state ~inbox
  in
  let t0 = Perf.now_ns () in
  let states, metrics =
    Scale_executor.run ~domains ?meter ~graph:prep.graph ~failures:(Failure.none ~n) ~max_rounds
      ~seed { base with Engine.step }
  in
  let t1 = Perf.now_ns () in
  let marks = List.filter (fun t -> t > 0) (Array.to_list stamps) @ [ t1 ] in
  let rec gaps = function a :: (b :: _ as rest) -> (b - a) :: gaps rest | _ -> [] in
  {
    result = Agg.root_result states.(Graph.root);
    cc = Metrics.cc metrics;
    bits = Metrics.total_bits metrics;
    rounds = Metrics.rounds metrics;
    wall_ns = t1 - t0;
    round_ns = gaps marks;
  }

let same_run a b = a.result = b.result && a.cc = b.cc && a.bits = b.bits && a.rounds = b.rounds

let check_pass prep p =
  if p.result = Agg.Value (Scale_run.expected_sum prep.params) then []
  else [ "scale-agg: AGG returned a wrong sum" ]

let timed_setup ~seed =
  let times = ref [] and prep = ref None in
  for _ = 1 to setup_repeats do
    prep := None;
    Gc.full_major ();
    let t0 = Perf.now_ns () in
    let p = prepare ~seed in
    times := Perf.secs_since t0 :: !times;
    prep := Some p
  done;
  (Option.get !prep, Perf.median !times)

(* The end-to-end run, at one domain.  One untimed pass warms the heap;
   measured passes repeat until [seconds] have elapsed and enough rounds
   were timed for a reportable p99.  A last pass at two domains, after
   the peak RSS is read, is the reference every pass must match
   exactly. *)
let run ~seed ~seconds =
  let prep, setup_s = timed_setup ~seed in
  let warm = run_pass ~domains:1 ~seed prep in
  let need = Perf.min_samples 99. in
  let measured = ref [] and nrounds = ref 0 in
  let t0 = Perf.now_ns () in
  while Perf.secs_since t0 < seconds || !nrounds < need do
    let p = run_pass ~domains:1 ~seed prep in
    measured := p :: !measured;
    nrounds := !nrounds + List.length p.round_ns
  done;
  let rss_kib = Option.value (Perf.vmhwm_kib "self") ~default:0 in
  let reference = run_pass ~domains:2 ~seed prep in
  let wrong p =
    check_pass prep p
    @ if same_run p reference then [] else [ "scale-agg: metrics differ between 1 and 2 domains" ]
  in
  let problems = List.concat_map wrong (warm :: !measured) in
  let bad = List.length (List.filter (fun p -> wrong p <> []) !measured) in
  let passes = List.length !measured in
  let intervals =
    List.map
      (fun p ->
        let latencies_ns = Array.of_list (List.map float_of_int p.round_ns) in
        { Perf.ops = Array.length latencies_ns; wall_ns = p.wall_ns; latencies_ns })
      !measured
  in
  let metrics, few = Perf.end_to_end ~intervals ~rss_kib ~setup_s in
  Printf.printf "scale-agg: %d passes, %d rounds timed (p99 has %d beyond)\n" passes !nrounds
    (Perf.beyond !nrounds 99.);
  let problems = problems @ few in
  { Perf.correct = problems = []; attempted = passes; failed = bad; problems; metrics }

(* The traced pass: build, one pass at 1 domain with the step counted
   and GC measured, one pass at 2 domains.  Spans: a root per phase
   with the layer call under it. *)
let layers ~trace ~seed =
  let span ~req name f = Perf.Trace.span trace ~req name f in
  let steps = ref 0 and inbox_steps = ref 0 and send_steps = ref 0 in
  let count (p : (Agg.node, Message.body) Engine.protocol) =
    if not trace.Perf.Trace.enabled then p
    else
      {
        p with
        Engine.step =
          (fun ~round ~me ~state ~inbox ->
            incr steps;
            if inbox <> [] then incr inbox_steps;
            let (_, out) as r = p.Engine.step ~round ~me ~state ~inbox in
            if out <> [] then incr send_steps;
            r);
      }
  in
  let t0 = Perf.now_ns () in
  let prep =
    span ~req:0 "setup" (fun () -> span ~req:0 "bigraph.build" (fun () -> prepare ~seed))
  in
  let build_ns = Perf.Trace.total_ns trace "bigraph.build" in
  let meter = Scale_mem.create ~check_every:1 ~n () in
  let one, gc =
    span ~req:1 "pass" (fun () ->
        span ~req:1 "executor.run" (fun () ->
            Perf.gc_measure (fun () -> run_pass ~meter ~wrap:count ~domains:1 ~seed prep)))
  in
  let two =
    span ~req:2 "pass" (fun () ->
        span ~req:2 "executor.run_2dom" (fun () -> run_pass ~domains:2 ~seed prep))
  in
  let wall_ns = Perf.now_ns () - t0 in
  let problems = check_pass prep one @ check_pass prep two in
  let problems =
    if same_run one two then problems
    else problems @ [ "scale-agg: metrics differ between 1 and 2 domains" ]
  in
  let node_rounds = float_of_int (n * one.rounds) in
  let ratio a = float_of_int a /. float_of_int (max 1 !steps) in
  ( wall_ns,
    problems,
    [
      Perf.metric "bigraph.build_s" "s" (float_of_int build_ns /. 1e9);
      Perf.metric "executor.ns_per_node_round" "ns" (float_of_int one.wall_ns /. node_rounds);
      Perf.metric "executor.speedup_2dom" "x" (float_of_int one.wall_ns /. float_of_int two.wall_ns);
      Perf.metric "executor.minor_words_per_node_round" "words" (gc.Perf.minor_words /. node_rounds);
      Perf.metric "executor.promoted_words" "words" gc.Perf.promoted_words;
      Perf.metric "executor.major_gcs" "count" (float_of_int gc.Perf.major_collections);
      Perf.metric "mem.bytes_per_node" "B"
        (float_of_int (Scale_mem.peak_live_bytes meter) /. float_of_int n);
      Perf.metric "executor.inbox_step_ratio" "ratio" (ratio !inbox_steps);
      Perf.metric "executor.send_step_ratio" "ratio" (ratio !send_steps);
    ] )
