module Engine = Ftagg_sim.Engine
module Metrics = Ftagg_sim.Metrics
module Failure = Ftagg_sim.Failure
module Graph = Ftagg_graph.Graph
module Prng = Ftagg_util.Prng
module Registry = Ftagg_obs.Registry

exception
  Partition_failed of {
    round : int;
    partition : int;
    exn : exn;
  }

let partitions ~n ~domains = Array.init domains (fun k -> (k * n / domains, (k + 1) * n / domains))

let frontier_edges bg ~domains =
  let n = Bigraph.n bg in
  let owner = Bytes.create n in
  Array.iteri
    (fun k (lo, hi) -> if hi > lo then Bytes.fill owner lo (hi - lo) (Char.chr k))
    (partitions ~n ~domains);
  let count = ref 0 in
  for u = 0 to n - 1 do
    Bigraph.iter_neighbors bg u (fun v ->
        if v > u && Bytes.get owner u <> Bytes.get owner v then incr count)
  done;
  !count

(* Everything the worker domains share with the coordinator.  Within a
   round, partition k writes only indices [lo_k, hi_k) of [states],
   [nextflight], [next_out] and the metrics' per-node slots, and reads
   arbitrary indices of the previous round's [inflight] / [cur_out];
   the mutex-protected barrier orders one round's writes before the next
   round's reads, so the run is data-race-free. *)
type 'm shared = {
  lock : Mutex.t;
  cond : Condition.t;
  mutable gen : int;  (** barrier generation; bumping it releases workers *)
  mutable round : int;
  mutable pending : int;
  mutable stop : bool;
  mutable failed : (int * int * exn) option;  (** partition, round, exn *)
  mutable inflight : 'm list array;
  mutable nextflight : 'm list array;
  mutable cur_out : Bytes.t;  (** byte u <> 0 iff inflight.(u) <> [] *)
  mutable next_out : Bytes.t;
  mutable had_traffic : bool;
  mutable traffic_next : bool;
}

let run ?(domains = 1) ?meter ?pool ?registry ~graph ~failures ~max_rounds ~seed proto =
  if domains < 1 || domains > 64 then invalid_arg "Executor.run: need 1 <= domains <= 64";
  let n = Bigraph.n graph in
  let offsets = graph.Bigraph.offsets and targets = graph.Bigraph.targets in
  let bget = Bigarray.Array1.unsafe_get in
  let crash = Failure.crash_rounds failures in
  if Array.length crash <> n then invalid_arg "Executor.run: failure schedule size mismatch";
  (* PRNG discipline mirrors Engine.run exactly: split the (unused here —
     loss is unsupported) loss stream first, then one per-node stream in
     ascending node order. *)
  let rng = Prng.create seed in
  let _loss_rng = Prng.split rng in
  let states = Array.init n (fun u -> proto.Engine.init u ~rng:(Prng.split rng)) in
  let metrics = Metrics.create n in
  let pool =
    match pool with
    | Some p ->
      if Pool.slot_bytes p < n then invalid_arg "Executor.run: pool slots smaller than n";
      p
    | None -> Pool.create ?registry ~name:"executor" ~slot_bytes:n ~slots:2 ()
  in
  let cur_out = Pool.acquire pool in
  let next_out = Pool.acquire pool in
  Bytes.fill cur_out 0 n '\000';
  Bytes.fill next_out 0 n '\000';
  let sh =
    {
      lock = Mutex.create ();
      cond = Condition.create ();
      gen = 0;
      round = 0;
      pending = 0;
      stop = false;
      failed = None;
      inflight = Array.make n [];
      nextflight = Array.make n [];
      cur_out;
      next_out;
      had_traffic = false;
      traffic_next = false;
    }
  in
  (* One partition, one round: the same walk as Engine.run's loss-free
     path — inbox built front-to-back by scanning CSR neighbours
     backwards, empty-broadcast fast path, per-node metrics slots. *)
  let step_range (lo, hi) r =
    let inflight = sh.inflight and nextflight = sh.nextflight in
    let cur = sh.cur_out and nxt = sh.next_out in
    let had_traffic = sh.had_traffic in
    let traffic = ref false in
    for u = lo to hi - 1 do
      if Array.unsafe_get crash u > r then begin
        let inbox =
          if not had_traffic then []
          else begin
            let lo_i = bget offsets u and hi_i = bget offsets (u + 1) in
            let acc = ref [] in
            for i = hi_i - 1 downto lo_i do
              let v = bget targets i in
              if Bytes.unsafe_get cur v <> '\000' then
                acc := Engine.deliver v (Array.unsafe_get inflight v) !acc
            done;
            !acc
          end
        in
        let state = Array.unsafe_get states u in
        let state', out = proto.Engine.step ~round:r ~me:u ~state ~inbox in
        if state' != state then Array.unsafe_set states u state';
        Engine.set_broadcast nextflight u out;
        match out with
        | [] -> Bytes.unsafe_set nxt u '\000'
        | _ ->
          Bytes.unsafe_set nxt u '\001';
          traffic := true;
          let bits = Engine.sum_bits proto.Engine.msg_bits 0 out in
          Metrics.charge metrics ~node:u ~bits
      end
      else begin
        Engine.set_broadcast nextflight u [];
        Bytes.unsafe_set nxt u '\000'
      end
    done;
    !traffic
  in
  let parts = partitions ~n ~domains in
  let worker p range () =
    let my_gen = ref 0 in
    let running = ref true in
    while !running do
      Mutex.lock sh.lock;
      while sh.gen = !my_gen && not sh.stop do
        Condition.wait sh.cond sh.lock
      done;
      if sh.stop then begin
        Mutex.unlock sh.lock;
        running := false
      end
      else begin
        my_gen := sh.gen;
        let r = sh.round in
        Mutex.unlock sh.lock;
        let outcome = try Ok (step_range range r) with e -> Error e in
        Mutex.lock sh.lock;
        (match outcome with
        | Ok traffic -> if traffic then sh.traffic_next <- true
        | Error e -> if sh.failed = None then sh.failed <- Some (p, r, e));
        sh.pending <- sh.pending - 1;
        if sh.pending = 0 then Condition.broadcast sh.cond;
        Mutex.unlock sh.lock
      end
    done
  in
  let workers = Array.init (domains - 1) (fun i -> Domain.spawn (worker (i + 1) parts.(i + 1))) in
  let cleanup () =
    Mutex.lock sh.lock;
    sh.stop <- true;
    Condition.broadcast sh.cond;
    Mutex.unlock sh.lock;
    Array.iter Domain.join workers;
    Pool.release pool sh.cur_out;
    Pool.release pool sh.next_out
  in
  let minor0 = Gc.minor_words () in
  let round = ref 1 in
  let halted = ref false in
  Fun.protect ~finally:cleanup (fun () ->
      while (not !halted) && !round <= max_rounds do
        let r = !round in
        Metrics.note_round metrics r;
        (* Dispatch: publish the round and release the workers. *)
        Mutex.lock sh.lock;
        sh.round <- r;
        sh.traffic_next <- false;
        sh.pending <- domains - 1;
        sh.gen <- sh.gen + 1;
        Condition.broadcast sh.cond;
        Mutex.unlock sh.lock;
        (* Partition 0 runs on the coordinator. *)
        let own = try Ok (step_range parts.(0) r) with e -> Error e in
        (* Barrier: wait for every worker's round. *)
        Mutex.lock sh.lock;
        while sh.pending > 0 do
          Condition.wait sh.cond sh.lock
        done;
        (match own with
        | Ok traffic -> if traffic then sh.traffic_next <- true
        | Error e -> if sh.failed = None then sh.failed <- Some (0, r, e));
        let failed = sh.failed and traffic = sh.traffic_next in
        Mutex.unlock sh.lock;
        (match failed with
        | Some (partition, fr, e) -> raise (Partition_failed { round = fr; partition; exn = e })
        | None -> ());
        (* Swap the double buffers: every slot holds this round's
           broadcast (stored only on change, see Engine.set_broadcast). *)
        let fl = sh.inflight in
        sh.inflight <- sh.nextflight;
        sh.nextflight <- fl;
        let b = sh.cur_out in
        sh.cur_out <- sh.next_out;
        sh.next_out <- b;
        sh.had_traffic <- traffic;
        (match meter with Some m -> Mem.check m ~round:r | None -> ());
        if proto.Engine.root_done states.(Graph.root) then halted := true;
        incr round
      done);
  let executed = Metrics.rounds metrics in
  (match registry with
  | Some reg when Registry.enabled () ->
    Registry.incr reg "scale_rounds_total" executed;
    Registry.set_gauge reg "scale_domains" (float_of_int domains);
    Registry.set_gauge reg "scale_frontier_edges" (float_of_int (frontier_edges graph ~domains));
    if executed > 0 then
      Registry.set_gauge reg "scale_minor_words_per_round"
        ((Gc.minor_words () -. minor0) /. float_of_int executed)
  | _ -> ());
  (match meter with Some m -> Mem.finish m | None -> ());
  (states, metrics)
