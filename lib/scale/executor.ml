module Engine = Ftagg_sim.Engine
module Metrics = Ftagg_sim.Metrics
module Registry = Ftagg_obs.Registry

exception Partition_failed = Engine.Partition_failed

let partitions = Engine.partitions

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

let run ?(domains = 1) ?meter ?registry ~graph ~failures ~max_rounds ~seed proto =
  let watch = Option.map (fun m v -> Mem.check m ~round:v.Engine.v_round; None) meter in
  let minor0 = Gc.minor_words () in
  let r = Engine.run_csr ~domains ?watch ~csr:graph ~failures ~max_rounds ~seed proto in
  let metrics = r.Engine.c_metrics in
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
  (r.Engine.c_states, metrics)
