module Graph = Ftagg_graph.Graph
module Csr = Ftagg_graph.Graph.Csr
module Prng = Ftagg_util.Prng
module Obs = Ftagg_obs.Obs
module Span = Ftagg_obs.Span

(* Run [body] with [obs]'s span collector ambient (so protocol [step]
   functions can open phase spans) and close all spans on the way out.
   [obs = None] must add nothing to the hot path: the caller's loop only
   touches obs behind a [match] that the branch predictor eats. *)
let with_obs obs body =
  match obs with
  | None -> body ()
  | Some o ->
    Span.with_ambient (Obs.spans o)
      (fun () ->
        let result = body () in
        Obs.finish o;
        result)

type node_id = int

type ('state, 'msg) protocol = {
  name : string;
  init : node_id -> rng:Prng.t -> 'state;
  step :
    round:int ->
    me:node_id ->
    state:'state ->
    inbox:(node_id * 'msg) list ->
    'state * 'msg list;
  msg_bits : 'msg -> int;
  root_done : 'state -> bool;
}

(* The original list-based engine, kept verbatim as the executable
   specification: [run] must be observationally identical to it (same
   final states, same metrics, same PRNG stream), which
   test_engine_perf.ml checks differentially and bench `perf` uses as
   the speedup baseline. *)
let run_reference ?observer ?(loss = 0.0) ~graph ~failures ~max_rounds ~seed proto =
  if loss < 0.0 || loss >= 1.0 then invalid_arg "Engine.run: loss must be in [0, 1)";
  let n = Graph.n graph in
  let rng = Prng.create seed in
  let loss_rng = Prng.split rng in
  let delivered () = loss = 0.0 || Prng.float loss_rng 1.0 >= loss in
  let states = Array.init n (fun u -> proto.init u ~rng:(Prng.split rng)) in
  let metrics = Metrics.create n in
  (* [in_flight.(u)] holds what [u] broadcast in the previous round (its
     logical payloads), to be delivered to u's neighbours this round. *)
  let in_flight : 'msg list array = Array.make n [] in
  let next_flight : 'msg list array = Array.make n [] in
  let round = ref 1 in
  let halted = ref false in
  while (not !halted) && !round <= max_rounds do
    let r = !round in
    Metrics.note_round metrics r;
    for u = 0 to n - 1 do
      if Failure.is_alive failures ~node:u ~round:r then begin
        let inbox =
          List.concat_map
            (fun v ->
              if in_flight.(v) = [] then []
              else if delivered () then List.map (fun m -> (v, m)) in_flight.(v)
              else [])
            (Graph.neighbors graph u)
        in
        let state', out = proto.step ~round:r ~me:u ~state:states.(u) ~inbox in
        states.(u) <- state';
        next_flight.(u) <- out;
        (match observer with Some f -> f ~round:r ~node:u out | None -> ());
        let bits = List.fold_left (fun acc m -> acc + proto.msg_bits m) 0 out in
        Metrics.charge metrics ~node:u ~bits
      end
      else next_flight.(u) <- []
    done;
    Array.blit next_flight 0 in_flight 0 n;
    Array.fill next_flight 0 n [];
    if proto.root_done states.(Graph.root) then halted := true;
    incr round
  done;
  (states, metrics)

(* ------------------------------------------------------------------ *)
(* Chaos instrumentation: message-level fault injection, online        *)
(* (adaptive) adversaries and per-round invariant watchdogs.           *)
(* ------------------------------------------------------------------ *)

type faults = {
  loss : float;
  dup : float;
  delay : float;
}

let no_faults = { loss = 0.0; dup = 0.0; delay = 0.0 }

type round_report = {
  rr_round : int;
  rr_broadcasters : int list;
  rr_metrics : Metrics.t;
  rr_crash_rounds : int array;
}

type online = round_report -> int list

type 'state view = {
  v_round : int;
  v_states : 'state array;
  v_metrics : Metrics.t;
  v_crash_rounds : int array;
}

type 'state watch = 'state view -> (string * string) option

type violation = {
  at_round : int;
  invariant : string;
  detail : string;
}

type 'state chaos_result = {
  c_states : 'state array;
  c_metrics : Metrics.t;
  c_schedule : Failure.t;
  c_violation : violation option;
}

(* Prepend [(v, m)] for every [m] of [msgs] onto [acc], preserving the
   order of [msgs].  Messages per broadcast are few, so the non-tail
   recursion is fine. *)
let rec deliver v msgs acc =
  match msgs with [] -> acc | m :: tl -> (v, m) :: deliver v tl acc

let rec sum_bits msg_bits acc = function
  | [] -> acc
  | m :: tl -> sum_bits msg_bits (acc + msg_bits m) tl

(* Store node [u]'s broadcast for this round into [slots], which holds
   its broadcast of two rounds ago.  Most nodes send nothing in most
   rounds and sent nothing before, so an empty broadcast over an empty
   slot skips the store and its write barrier. *)
let set_broadcast slots u out =
  match out with
  | [] -> ( match Array.unsafe_get slots u with [] -> () | _ -> Array.unsafe_set slots u [])
  | _ -> Array.unsafe_set slots u out

(* The one round kernel behind [run] and [run_chaos]: observably
   identical to [run_reference] (same states, metrics and PRNG streams)
   when no chaos knob is set, but the delivery loop walks a CSR snapshot
   of the adjacency with no per-round set filtering, no
   [List.concat_map] churn and no closure allocation — the only
   allocations left are the inbox cells the protocol API requires.

   Faults are drawn per incident edge with traffic, in ascending
   neighbour order: loss, then (if delivered) dup, then delay, each only
   when its probability is positive — the draw order of [run_reference]
   and of the list-based chaos oracle in test/, so the loss PRNG stream
   matches both.  A delayed delivery is held
   at the receiver and arrives next round ahead of that round's traffic;
   it survives the sender's crash (in flight = in flight).  [crash] is
   the live schedule: [online] lowers entries of it, so [run_chaos]
   hands in a private copy. *)
let kernel ?observer ?obs ~faults ?online ?watch ~halt_on_violation ~graph ~crash ~max_rounds
    ~seed proto =
  let { loss; dup; delay } = faults in
  let faulty = loss > 0.0 || dup > 0.0 || delay > 0.0 in
  let delaying = delay > 0.0 in
  let n = Graph.n graph in
  let csr = Graph.csr graph in
  let offsets = csr.Csr.offsets and targets = csr.Csr.targets in
  let rng = Prng.create seed in
  let loss_rng = Prng.split rng in
  let draw p = p > 0.0 && Prng.float loss_rng 1.0 < p in
  let states = Array.init n (fun u -> proto.init u ~rng:(Prng.split rng)) in
  let metrics = Metrics.create n in
  let in_flight : 'msg list array ref = ref (Array.make n []) in
  let next_flight : 'msg list array ref = ref (Array.make n []) in
  (* [held.(u)]: (sender, payload) pairs delayed into this round for
     [u]; [next_held] collects this round's delays.  Both stay empty
     (and zero-length) unless [delay > 0]. *)
  let held_len = if delaying then n else 0 in
  let held : (node_id * 'msg) list array ref = ref (Array.make held_len []) in
  let next_held : (node_id * 'msg) list array ref = ref (Array.make held_len []) in
  (* Reusable per-node fault outcomes, one slot per incident edge of the
     busiest node: 0 = nothing arrives, 1 or 2 = that many copies arrive
     now, -1 or -2 = that many copies arrive next round. *)
  let copies = Array.make (max 1 (Csr.max_degree csr)) 0 in
  (* [traffic] = did anyone broadcast last round?  When false, every
     fresh inbox is empty and no fault draw would happen (draws are only
     made for neighbours with a non-empty in-flight slot), so the whole
     neighbour scan is skipped — most rounds of a typical protocol are
     globally silent. *)
  let traffic = ref false in
  (* This round's senders, newest first; kept only for [online]. *)
  let rev_broadcasters = ref [] in
  let violation = ref None in
  let round = ref 1 in
  let halted = ref false in
  with_obs obs @@ fun () ->
  while (not !halted) && !round <= max_rounds do
    let r = !round in
    Metrics.note_round metrics r;
    (match obs with Some o -> Obs.on_round o r | None -> ());
    let inflight = !in_flight and nextflight = !next_flight in
    let heldnow = !held and heldnext = !next_held in
    let had_traffic = !traffic in
    traffic := false;
    rev_broadcasters := [];
    for u = 0 to n - 1 do
      if Array.unsafe_get crash u > r then begin
        let fresh =
          if not had_traffic then []
          else begin
            let lo = Array.unsafe_get offsets u in
            let hi = Array.unsafe_get offsets (u + 1) in
            if not faulty then begin
              (* Build front-to-back order by walking neighbours
                 backwards. *)
              let acc = ref [] in
              for i = hi - 1 downto lo do
                let v = Array.unsafe_get targets i in
                match Array.unsafe_get inflight v with
                | [] -> ()
                | msgs -> acc := deliver v msgs !acc
              done;
              !acc
            end
            else begin
              (* Draws must happen in ascending neighbour order, so
                 record the outcomes forwards first. *)
              for i = lo to hi - 1 do
                Array.unsafe_set copies (i - lo)
                  (match Array.unsafe_get inflight (Array.unsafe_get targets i) with
                  | [] -> 0
                  | _ ->
                    if draw loss then 0
                    else begin
                      let c = if draw dup then 2 else 1 in
                      if draw delay then -c else c
                    end)
              done;
              let acc = ref [] and late = ref [] in
              for i = hi - 1 downto lo do
                let v = Array.unsafe_get targets i in
                match Array.unsafe_get copies (i - lo) with
                | 0 -> ()
                | 1 -> acc := deliver v inflight.(v) !acc
                | 2 -> acc := deliver v inflight.(v) (deliver v inflight.(v) !acc)
                | -1 -> late := deliver v inflight.(v) !late
                | _ -> late := deliver v inflight.(v) (deliver v inflight.(v) !late)
              done;
              (match !late with [] -> () | late -> heldnext.(u) <- late);
              !acc
            end
          end
        in
        let inbox =
          if not delaying then fresh
          else
            match heldnow.(u) with
            | [] -> fresh
            | early ->
              heldnow.(u) <- [];
              early @ fresh
        in
        let state = Array.unsafe_get states u in
        let state', out = proto.step ~round:r ~me:u ~state ~inbox in
        (* Protocols that mutate their state in place return it as is:
           skip the store and its write barrier. *)
        if state' != state then Array.unsafe_set states u state';
        set_broadcast nextflight u out;
        (match observer with Some f -> f ~round:r ~node:u out | None -> ());
        (* An empty broadcast charges 0 bits and no message — skip the
           fold and the metrics write entirely. *)
        match out with
        | [] -> ()
        | _ ->
          traffic := true;
          (match online with Some _ -> rev_broadcasters := u :: !rev_broadcasters | None -> ());
          let bits = sum_bits proto.msg_bits 0 out in
          Metrics.charge metrics ~node:u ~bits;
          (match obs with
          | Some o -> Obs.on_broadcast o ~round:r ~node:u ~msgs:(List.length out) ~bits
          | None -> ())
      end
      else begin
        set_broadcast nextflight u [];
        (* A crashed receiver never takes delivery of what it was held. *)
        if delaying then set_broadcast heldnow u []
      end
    done;
    (* Every slot of [nextflight] now holds this round's broadcast (a
       slot is stored only when its content changes), and every slot of
       [heldnow] has been consumed, so swapping the array pairs replaces
       a blit + fill without copying. *)
    in_flight := nextflight;
    next_flight := inflight;
    held := heldnext;
    next_held := heldnow;
    (match watch with
    | Some w when Option.is_none !violation -> (
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
  (states, metrics, !violation)

let run ?observer ?obs ?(loss = 0.0) ~graph ~failures ~max_rounds ~seed proto =
  if loss < 0.0 || loss >= 1.0 then invalid_arg "Engine.run: loss must be in [0, 1)";
  let states, metrics, _ =
    kernel ?observer ?obs ~faults:{ no_faults with loss } ~halt_on_violation:true ~graph
      ~crash:(Failure.crash_rounds failures) ~max_rounds ~seed proto
  in
  (states, metrics)

let run_chaos ?observer ?obs ?(faults = no_faults) ?online ?watch ?(halt_on_violation = true)
    ~graph ~failures ~max_rounds ~seed proto =
  let { loss; dup; delay } = faults in
  if loss < 0.0 || loss > 1.0 then invalid_arg "Engine.run_chaos: loss must be in [0, 1]";
  if dup < 0.0 || dup > 1.0 then invalid_arg "Engine.run_chaos: dup must be in [0, 1]";
  if delay < 0.0 || delay > 1.0 then invalid_arg "Engine.run_chaos: delay must be in [0, 1]";
  (* A private copy: online crash decisions must not mutate the caller's
     oblivious schedule. *)
  let crash = Array.copy (Failure.crash_rounds failures) in
  let states, metrics, violation =
    kernel ?observer ?obs ~faults ?online ?watch ~halt_on_violation ~graph ~crash ~max_rounds
      ~seed proto
  in
  {
    c_states = states;
    c_metrics = metrics;
    c_schedule = Failure.of_crash_rounds crash;
    c_violation = violation;
  }
