(* chaos-churn: watched protocol runs, in-process on one domain.  The
   churn scenario matrix (4 schedules x {agg, flowupdating} on an evolving
   64-node grid) followed by a batch of AGG chaos-campaign trials.  Every
   run goes through the watched chaos engine; no socket or cache is
   involved, so a change to the chaos round loop shows here and nowhere
   else. *)

open Ftagg

let spec ~seed = { Scenario.default with Scenario.n = 64; seed }

(* Campaign trials after each matrix: enough for a p99 per iteration. *)
let trial_batch = 1000

(* Membership builds repeated to time set-up; their median is reported. *)
let setup_repeats = 15

let trial_seed ~seed k = (seed * 1_000_003) + k

(* Every generation of every schedule's membership, as the scenario
   runner evolves it. *)
let build_memberships ?(advance = fun f -> f ()) (s : Scenario.spec) =
  List.map
    (fun sched ->
      let m = ref (Membership.create ~family:s.Scenario.family ~n:s.Scenario.n ~seed:s.Scenario.seed) in
      for g = 1 to s.Scenario.generations - 1 do
        let joins, leaves = Schedule.churn sched ~generation:g ~seed:s.Scenario.seed in
        (* the graph is built lazily; forcing it, and deriving the run
           parameters from it as the runner does, is part of the step *)
        m :=
          advance (fun () ->
              let next = Membership.advance !m ~joins ~leaves in
              let graph = Membership.graph next in
              let inputs = Array.make (Membership.total_n next) 1 in
              ignore (Params.make ~c:s.Scenario.c ~graph ~inputs ());
              next)
      done;
      !m)
    s.Scenario.schedules

let matrix_json reports =
  String.concat "\n"
    (List.map (fun r -> Bench_io.to_string ~indent:false (Scenario.report_to_json r)) reports)

let check_matrix (s : Scenario.spec) reports =
  let expected = s.Scenario.generations * s.Scenario.runs_per_generation in
  List.concat_map
    (fun (r : Scenario.report) ->
      (if r.Scenario.r_runs <> expected then
         [ Printf.sprintf "chaos-churn: %s/%s ran %d of %d runs" r.r_schedule r.r_backend r.r_runs expected ]
       else [])
      @
      if r.Scenario.r_schedule = "clear_skies" && r.Scenario.r_completed <> r.Scenario.r_runs then
        [ Printf.sprintf "chaos-churn: clear skies, yet %s completed %d/%d" r.r_backend r.r_completed r.r_runs ]
      else [])
    reports

let run_trial ~seed k =
  let o = Campaign.run { Campaign.default_config with Campaign.trials = 1; seed = trial_seed ~seed k } in
  if o.Campaign.o_violating_trials > 0 || o.Campaign.o_rejected_trials > 0 then
    Some (Printf.sprintf "chaos-churn: campaign trial %d reported a violation" k)
  else None

(* The end-to-end run.  Each iteration runs the matrix under its own
   seed, so a run averages over several churn draws, then a batch of
   individually timed campaign trials.  One schedule of the first matrix
   is run again at the end and must report byte-identical rows. *)
let run ~seed ~seconds =
  let matrix_seed i = (seed * 1000) + i in
  let setup_times =
    List.init setup_repeats (fun _ ->
        let t0 = Perf.now_ns () in
        ignore (build_memberships (spec ~seed:(matrix_seed 0)));
        Perf.secs_since t0)
  in
  let problems = ref [] and failed = ref 0 in
  let first = ref [] and intervals = ref [] and runs = ref 0 and ntrials = ref 0 in
  let t0 = Perf.now_ns () in
  while Perf.secs_since t0 < seconds do
    let iter = List.length !intervals in
    let ti = Perf.now_ns () in
    let s = spec ~seed:(matrix_seed iter) in
    let reports = Scenario.run s in
    if iter = 0 then first := reports;
    let matrix_runs = List.fold_left (fun a r -> a + r.Scenario.r_runs) 0 reports in
    problems := !problems @ check_matrix s reports;
    let trials =
      Array.init trial_batch (fun _ ->
          let t = Perf.now_ns () in
          let bad = run_trial ~seed !ntrials in
          incr ntrials;
          Option.iter (fun p -> incr failed; problems := !problems @ [ p ]) bad;
          float_of_int (Perf.now_ns () - t))
    in
    runs := !runs + matrix_runs;
    intervals :=
      { Perf.ops = matrix_runs + trial_batch; wall_ns = Perf.now_ns () - ti; latencies_ns = trials }
      :: !intervals
  done;
  let metrics, few =
    Perf.end_to_end ~intervals:!intervals
      ~rss_kib:(Option.value (Perf.vmhwm_kib "self") ~default:0)
      ~setup_s:(Perf.median setup_times)
  in
  Printf.printf "chaos-churn: %d scenario runs, %d campaign trials timed\n" !runs !ntrials;
  let s0 = spec ~seed:(matrix_seed 0) in
  let last = List.nth s0.Scenario.schedules (List.length s0.Scenario.schedules - 1) in
  let again = Scenario.run { s0 with Scenario.schedules = [ last ] } in
  let rows = List.filter (fun r -> r.Scenario.r_schedule = Schedule.name last) !first in
  let problems =
    !problems @ few
    @ if matrix_json again = matrix_json rows then [] else [ "chaos-churn: same-seed reports differ" ]
  in
  { Perf.correct = problems = []; attempted = !runs + !ntrials; failed = !failed; problems; metrics }

(* [exec_chaos] with every chaos knob off against plain [exec], on one
   fixed scenario: the price of the watched round loop. *)
let fast_vs_chaos ~trace ~seed ~repeats =
  let span ~req name f = Perf.Trace.span trace ~req name f in
  let backend = Option.get (Run.backend_of_string "agg") in
  let graph = Gen.build Gen.Grid ~n:64 ~seed in
  let inputs = Array.init 64 (fun i -> 4 + (i mod 7)) in
  let params = Params.make ~c:2 ~graph ~inputs () in
  let failures = Failure.random graph ~rng:(Prng.create seed) ~budget:4 ~max_round:20 in
  let b = 40 and f = 4 in
  let problems = ref [] and words = ref 0. and node_rounds = ref 0 in
  for k = 1 to repeats do
    let fast =
      span ~req:k "exec" (fun () ->
          span ~req:k "backend.exec" (fun () ->
              Backend.exec ~backend ~graph ~failures ~params ~b ~f ~seed ()))
    in
    let chaos, gc =
      span ~req:k "exec" (fun () ->
          span ~req:k "chaos.exec_chaos" (fun () ->
              Perf.gc_measure (fun () ->
                  Backend.exec_chaos ~backend ~graph ~failures ~params ~b ~f ~seed ())))
    in
    let c = chaos.Backend.c_outcome.Backend.common in
    if
      Metrics.cc c.Backend.metrics <> Metrics.cc fast.Backend.common.Backend.metrics
      || c.Backend.rounds <> fast.Backend.common.Backend.rounds
      || chaos.Backend.c_outcome.Backend.result <> fast.Backend.result
    then problems := [ "chaos-churn: exec_chaos with chaos off differs from exec" ];
    words := !words +. gc.Perf.minor_words;
    node_rounds := !node_rounds + (64 * c.Backend.rounds)
  done;
  (!problems, !words, !node_rounds)

(* The traced pass: membership builds, the matrix cell by cell, a batch
   of campaign trials, and the chaos-vs-plain engine comparison. *)
let layers ~trace ~seed =
  let span ~req name f = Perf.Trace.span trace ~req name f in
  let s = spec ~seed in
  let t0 = Perf.now_ns () in
  ignore
    (span ~req:0 "setup" (fun () ->
         build_memberships ~advance:(fun f -> span ~req:0 "membership.advance" f) s));
  let problems = ref [] in
  let req = ref 1 in
  List.iter
    (fun sched ->
      List.iter
        (fun backend ->
          let cell = { s with Scenario.schedules = [ sched ]; backends = [ backend ] } in
          let reports =
            span ~req:!req "cell" (fun () -> span ~req:!req "scenario.cell" (fun () -> Scenario.run cell))
          in
          incr req;
          problems := !problems @ check_matrix cell reports)
        s.Scenario.backends)
    s.Scenario.schedules;
  for k = 0 to 99 do
    let bad =
      span ~req:(1000 + k) "trial" (fun () ->
          span ~req:(1000 + k) "campaign.trial" (fun () -> run_trial ~seed k))
    in
    Option.iter (fun p -> problems := !problems @ [ p ]) bad
  done;
  let pin_problems, words, node_rounds = fast_vs_chaos ~trace ~seed ~repeats:20 in
  let wall_ns = Perf.now_ns () - t0 in
  let nr = float_of_int (max 1 node_rounds) in
  let med name = Perf.Trace.median_ns trace name in
  ( wall_ns,
    !problems @ pin_problems,
    [
      Perf.metric "chaos.ns_per_node_round" "ns"
        (float_of_int (Perf.Trace.total_ns trace "chaos.exec_chaos") /. nr);
      Perf.metric "chaos.minor_words_per_node_round" "words" (words /. nr);
      Perf.metric "chaos.vs_fast_ratio" "x" (med "chaos.exec_chaos" /. med "backend.exec");
      Perf.metric "membership.advance_us" "us" (med "membership.advance" /. 1e3);
      Perf.metric "scenario.cell_s" "s" (med "scenario.cell" /. 1e9);
      Perf.metric "campaign.trial_ms" "ms" (med "campaign.trial" /. 1e6);
    ] )
