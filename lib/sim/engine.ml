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

(* ------------------------------------------------------------------ *)
(* Partitioning across domains                                         *)
(* ------------------------------------------------------------------ *)

exception
  Partition_failed of {
    round : int;
    partition : int;
    exn : exn;
  }

let partitions ~n ~domains = Array.init domains (fun k -> (k * n / domains, (k + 1) * n / domains))

(* The generation-counted round barrier between the coordinator (which
   runs partition 0) and one worker domain per other partition.  Bumping
   [gen] releases the workers into round [round]; each decrements
   [pending] when done, and the last one wakes the coordinator.  The
   mutex orders one round's writes before the next round's reads. *)
type barrier = {
  lock : Mutex.t;
  cond : Condition.t;
  mutable gen : int;
  mutable round : int;
  mutable pending : int;
  mutable stop : bool;
  mutable sent : bool;  (** did any partition broadcast this round? *)
  mutable failed : (int * int * exn) option;  (** partition, round, exn *)
}

(* Record partition [k]'s outcome of round [r]; call under the lock. *)
let settle b k r = function
  | Ok sent -> if sent then b.sent <- true
  | Error e -> if b.failed = None then b.failed <- Some (k, r, e)

let worker b step k () =
  let my_gen = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock b.lock;
    while b.gen = !my_gen && not b.stop do
      Condition.wait b.cond b.lock
    done;
    if b.stop then begin
      Mutex.unlock b.lock;
      running := false
    end
    else begin
      my_gen := b.gen;
      let r = b.round in
      Mutex.unlock b.lock;
      let outcome = try Ok (step k r) with e -> Error e in
      Mutex.lock b.lock;
      settle b k r outcome;
      b.pending <- b.pending - 1;
      if b.pending = 0 then Condition.broadcast b.cond;
      Mutex.unlock b.lock
    end
  done

(* Start one worker per partition but the first; returns the per-round
   step (partition 0 on the caller, then the barrier) and the shutdown.
   Every partition finishes its round before a failure is raised. *)
let spawn_partitions ~domains step =
  let b =
    {
      lock = Mutex.create ();
      cond = Condition.create ();
      gen = 0;
      round = 0;
      pending = 0;
      stop = false;
      sent = false;
      failed = None;
    }
  in
  let workers = Array.init (domains - 1) (fun i -> Domain.spawn (worker b step (i + 1))) in
  let step_round r =
    Mutex.lock b.lock;
    b.round <- r;
    b.sent <- false;
    b.pending <- domains - 1;
    b.gen <- b.gen + 1;
    Condition.broadcast b.cond;
    Mutex.unlock b.lock;
    let own = try Ok (step 0 r) with e -> Error e in
    Mutex.lock b.lock;
    while b.pending > 0 do
      Condition.wait b.cond b.lock
    done;
    settle b 0 r own;
    let failed = b.failed and sent = b.sent in
    Mutex.unlock b.lock;
    match failed with
    | Some (partition, round, exn) -> raise (Partition_failed { round; partition; exn })
    | None -> sent
  in
  let shutdown () =
    Mutex.lock b.lock;
    b.stop <- true;
    Condition.broadcast b.cond;
    Mutex.unlock b.lock;
    Array.iter Domain.join workers
  in
  (step_round, shutdown)

(* ------------------------------------------------------------------ *)
(* The round kernel                                                    *)
(* ------------------------------------------------------------------ *)

(* The one round kernel behind [run], [run_chaos] and the scale
   executor: observably identical to [run_reference] (same states,
   metrics and PRNG streams) when no chaos knob is set, but the delivery
   loop walks a CSR with no per-round set filtering, no
   [List.concat_map] churn and no closure allocation — the only
   allocations left are the inbox cells the protocol API requires.

   Faults are drawn per incident edge with traffic, in ascending
   neighbour order: loss, then (if delivered) dup, then delay, each only
   when its probability is positive — the draw order of [run_reference]
   and of the list-based chaos oracle in test/, so the loss PRNG stream
   matches both.  A delayed delivery is held
   at the receiver and arrives next round ahead of that round's traffic;
   it survives the sender's crash (in flight = in flight).  [crash] is
   the live schedule: [online] lowers entries of it.

   With [domains > 1] the nodes are split by [partitions], one domain
   each.  Within a round a partition writes only its own slots of
   [states], the next-broadcast arrays and the metrics, and reads the
   previous round's broadcasts, so the barrier is the only
   synchronisation.  Everything that needs the global node order (fault
   draws, the adversary's broadcaster list, the observer and obs) is
   refused there by [run_csr]; [watch] runs on the coordinator after the
   barrier. *)
let kernel ~domains ?observer ?obs ~faults ?online ?watch ~halt_on_violation ~csr ~crash
    ~max_rounds ~seed proto =
  let { loss; dup; delay } = faults in
  let faulty = loss > 0.0 || dup > 0.0 || delay > 0.0 in
  let delaying = delay > 0.0 in
  let n = csr.Csr.nodes in
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
  let copies = Array.make (if faulty then max 1 (Csr.max_degree csr) else 0) 0 in
  (* [traffic] = did anyone broadcast last round?  When false, every
     fresh inbox is empty and no fault draw would happen (draws are only
     made for neighbours with a non-empty in-flight slot), so the whole
     neighbour scan is skipped — most rounds of a typical protocol are
     globally silent. *)
  let traffic = ref false in
  (* This round's senders, newest first; kept only for [online]. *)
  let rev_broadcasters = ref [] in
  (* Round [r] for nodes [lo, hi); says whether any of them broadcast. *)
  let step_range lo hi r =
    let inflight = !in_flight and nextflight = !next_flight in
    let heldnow = !held and heldnext = !next_held in
    let had_traffic = !traffic in
    let sent = ref false in
    for u = lo to hi - 1 do
      if Array.unsafe_get crash u > r then begin
        let fresh =
          if not had_traffic then []
          else begin
            let lo = Bigarray.Array1.unsafe_get offsets u in
            let hi = Bigarray.Array1.unsafe_get offsets (u + 1) in
            if not faulty then begin
              (* Build front-to-back order by walking neighbours
                 backwards. *)
              let acc = ref [] in
              for i = hi - 1 downto lo do
                let v = Bigarray.Array1.unsafe_get targets i in
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
                  (match Array.unsafe_get inflight (Bigarray.Array1.unsafe_get targets i) with
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
                let v = Bigarray.Array1.unsafe_get targets i in
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
          sent := true;
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
    !sent
  in
  let step_round, shutdown =
    if domains = 1 then ((fun r -> step_range 0 n r), ignore)
    else
      let parts = partitions ~n ~domains in
      spawn_partitions ~domains (fun k r ->
          let lo, hi = parts.(k) in
          step_range lo hi r)
  in
  let violation = ref None in
  let round = ref 1 in
  let halted = ref false in
  with_obs obs @@ fun () ->
  Fun.protect ~finally:shutdown @@ fun () ->
  while (not !halted) && !round <= max_rounds do
    let r = !round in
    Metrics.note_round metrics r;
    (match obs with Some o -> Obs.on_round o r | None -> ());
    rev_broadcasters := [];
    let sent = step_round r in
    (* Every slot of the next-round arrays now holds this round's
       broadcast (a slot is stored only when its content changes), and
       every held slot has been consumed, so swapping the array pairs
       replaces a blit + fill without copying. *)
    let fl = !in_flight in
    in_flight := !next_flight;
    next_flight := fl;
    let hl = !held in
    held := !next_held;
    next_held := hl;
    traffic := sent;
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

let run_csr ?(domains = 1) ?observer ?obs ?(faults = no_faults) ?online ?watch
    ?(halt_on_violation = true) ~csr ~failures ~max_rounds ~seed proto =
  let { loss; dup; delay } = faults in
  if loss < 0.0 || loss > 1.0 then invalid_arg "Engine.run_csr: loss must be in [0, 1]";
  if dup < 0.0 || dup > 1.0 then invalid_arg "Engine.run_csr: dup must be in [0, 1]";
  if delay < 0.0 || delay > 1.0 then invalid_arg "Engine.run_csr: delay must be in [0, 1]";
  if domains < 1 || domains > 64 then invalid_arg "Engine.run_csr: need 1 <= domains <= 64";
  if
    domains > 1
    && (loss > 0.0 || dup > 0.0 || delay > 0.0 || Option.is_some online
       || Option.is_some observer || Option.is_some obs)
  then invalid_arg "Engine.run_csr: faults, online, observer and obs need domains = 1";
  if Array.length (Failure.crash_rounds failures) <> csr.Csr.nodes then
    invalid_arg "Engine.run_csr: failure schedule size mismatch";
  (* Online crash decisions go to a private copy, never the caller's
     oblivious schedule. *)
  let crash =
    match online with
    | None -> Failure.crash_rounds failures
    | Some _ -> Array.copy (Failure.crash_rounds failures)
  in
  let states, metrics, violation =
    kernel ~domains ?observer ?obs ~faults ?online ?watch ~halt_on_violation ~csr ~crash
      ~max_rounds ~seed proto
  in
  {
    c_states = states;
    c_metrics = metrics;
    c_schedule = (match online with None -> failures | Some _ -> Failure.of_crash_rounds crash);
    c_violation = violation;
  }

let run ?observer ?obs ?(loss = 0.0) ~graph ~failures ~max_rounds ~seed proto =
  if loss < 0.0 || loss >= 1.0 then invalid_arg "Engine.run: loss must be in [0, 1)";
  let r =
    run_csr ?observer ?obs ~faults:{ no_faults with loss } ~csr:(Graph.csr graph) ~failures
      ~max_rounds ~seed proto
  in
  (r.c_states, r.c_metrics)

let run_chaos ?observer ?obs ?faults ?online ?watch ?halt_on_violation ~graph ~failures
    ~max_rounds ~seed proto =
  run_csr ?observer ?obs ?faults ?online ?watch ?halt_on_violation ~csr:(Graph.csr graph)
    ~failures ~max_rounds ~seed proto
