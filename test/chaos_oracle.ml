(* The list-based chaos engine that [Engine.run_chaos] ran on before it
   moved onto the shared CSR round kernel, kept verbatim as the test
   oracle for the fault paths (loss, duplication, delay, online
   adversaries, watchdogs).  test_chaos.ml checks the kernel against it
   differentially; it is not a hot path. *)

open Ftagg
open Engine

let with_obs obs body =
  match obs with
  | None -> body ()
  | Some o ->
    Span.with_ambient (Obs.spans o)
      (fun () ->
        let result = body () in
        Obs.finish o;
        result)

(* The instrumented engine.  Structured like [run_reference] (lists, no
   CSR tricks) because clarity beats speed off the hot path, with three
   additions: per-edge duplication/one-round-delay faults, an online
   adversary consulted after every round, and a watchdog that can stop
   the run at the first violated invariant.

   With [faults = no_faults], no [online] and no [watch], the PRNG setup
   and draw order are exactly [run_reference]'s — the dup/delay draws are
   guarded by their probabilities being positive — so a chaos-off run is
   observably identical to [run]/[run_reference] (states, metrics, PRNG
   streams); test/test_chaos.ml checks this differentially. *)
let run_chaos ?observer ?obs ?(faults = no_faults) ?online ?watch ?(halt_on_violation = true)
    ~graph ~failures ~max_rounds ~seed proto =
  let { loss; dup; delay } = faults in
  if loss < 0.0 || loss > 1.0 then invalid_arg "Engine.run_chaos: loss must be in [0, 1]";
  if dup < 0.0 || dup > 1.0 then invalid_arg "Engine.run_chaos: dup must be in [0, 1]";
  if delay < 0.0 || delay > 1.0 then invalid_arg "Engine.run_chaos: delay must be in [0, 1]";
  let n = Graph.n graph in
  let rng = Prng.create seed in
  let loss_rng = Prng.split rng in
  let states = Array.init n (fun u -> proto.init u ~rng:(Prng.split rng)) in
  let metrics = Metrics.create n in
  (* A private copy: online crash decisions must not mutate the caller's
     oblivious schedule. *)
  let crash = Array.copy (Failure.crash_rounds failures) in
  let in_flight : 'msg list array = Array.make n [] in
  let next_flight : 'msg list array = Array.make n [] in
  (* [delayed.(u)] holds (sender, payload) pairs whose delivery to [u]
     was pushed one round; they arrive ahead of this round's traffic and
     survive the sender's crash (in flight = in flight). *)
  let delayed : (node_id * 'msg) list array = Array.make n [] in
  let next_delayed : (node_id * 'msg) list array = Array.make n [] in
  let draw p = p > 0.0 && Prng.float loss_rng 1.0 < p in
  let violation = ref None in
  let round = ref 1 in
  let halted = ref false in
  with_obs obs @@ fun () ->
  while (not !halted) && !round <= max_rounds do
    let r = !round in
    Metrics.note_round metrics r;
    (match obs with Some o -> Obs.on_round o r | None -> ());
    let rev_broadcasters = ref [] in
    for u = 0 to n - 1 do
      if crash.(u) > r then begin
        let held = delayed.(u) in
        delayed.(u) <- [];
        let fresh =
          List.concat_map
            (fun v ->
              if in_flight.(v) = [] then []
              else if loss = 0.0 || Prng.float loss_rng 1.0 >= loss then begin
                let msgs = List.map (fun m -> (v, m)) in_flight.(v) in
                let msgs = if draw dup then msgs @ msgs else msgs in
                if draw delay then begin
                  next_delayed.(u) <- next_delayed.(u) @ msgs;
                  []
                end
                else msgs
              end
              else [])
            (Graph.neighbors graph u)
        in
        let inbox = held @ fresh in
        let state', out = proto.step ~round:r ~me:u ~state:states.(u) ~inbox in
        states.(u) <- state';
        next_flight.(u) <- out;
        (match observer with Some f -> f ~round:r ~node:u out | None -> ());
        if out <> [] then rev_broadcasters := u :: !rev_broadcasters;
        let bits = List.fold_left (fun acc m -> acc + proto.msg_bits m) 0 out in
        Metrics.charge metrics ~node:u ~bits;
        (match (obs, out) with
        | Some o, _ :: _ -> Obs.on_broadcast o ~round:r ~node:u ~msgs:(List.length out) ~bits
        | _ -> ())
      end
      else begin
        next_flight.(u) <- [];
        delayed.(u) <- [];
        next_delayed.(u) <- []
      end
    done;
    Array.blit next_flight 0 in_flight 0 n;
    Array.fill next_flight 0 n [];
    Array.blit next_delayed 0 delayed 0 n;
    Array.fill next_delayed 0 n [];
    (match watch with
    | Some w when !violation = None -> (
      match
        w { v_round = r; v_states = states; v_metrics = metrics; v_crash_rounds = crash }
      with
      | Some (invariant, detail) ->
        violation := Some { at_round = r; invariant; detail };
        (match obs with
        | Some o -> Obs.on_violation o ~round:r ~invariant ~detail
        | None -> ());
        if halt_on_violation then halted := true
      | None -> ())
    | _ -> ());
    (match online with
    | Some adversary when not !halted ->
      let report =
        {
          rr_round = r;
          rr_broadcasters = List.rev !rev_broadcasters;
          rr_metrics = metrics;
          rr_crash_rounds = crash;
        }
      in
      List.iter
        (fun u -> if u > 0 && u < n && crash.(u) > r + 1 then crash.(u) <- r + 1)
        (adversary report)
    | _ -> ());
    if proto.root_done states.(Graph.root) then halted := true;
    incr round
  done;
  {
    c_states = states;
    c_metrics = metrics;
    c_schedule = Failure.of_crash_rounds crash;
    c_violation = !violation;
  }
