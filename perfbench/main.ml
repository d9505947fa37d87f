(* The ftagg benchmark.

     main.exe --workload W --seed N --seconds S --trace 0|1

   With --trace 0 it runs workload W for about S seconds with tracing
   off and reports the end-to-end metrics.  With --trace 1 it runs the
   traced pass of every layer family (serve, chaos, scale) and reports
   the per-layer metrics, plus W's tracing overhead and span coverage;
   the spans are written to .bench_out/ and read back.  The last line of
   standard output is the result as one JSON object. *)

open Ftagg_perfbench
module Bench_io = Ftagg.Bench_io

let workloads = [ ("serve-zipf", `Serve); ("chaos-churn", `Chaos); ("scale-agg", `Scale) ]
let family = function `Serve -> "serve" | `Chaos -> "chaos" | `Scale -> "scale"

(* Layer families in an order that forks before any domain is spawned. *)
let families =
  [ ("serve", Serve_zipf.layers); ("chaos", Chaos_churn.layers); ("scale", Scale_agg.layers) ]

let usage () =
  prerr_endline "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1";
  prerr_endline ("workloads: " ^ String.concat ", " (List.map fst workloads));
  exit 2

let parse_args () =
  let rec go acc = function
    | flag :: v :: rest when String.starts_with ~prefix:"--" flag -> go ((flag, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let args = go [] (List.tl (Array.to_list Sys.argv)) in
  let get f conv = match Option.bind (List.assoc_opt f args) conv with Some v -> v | None -> usage () in
  let workload = get "--workload" (fun w -> Option.map (fun k -> (w, k)) (List.assoc_opt w workloads)) in
  let seed = get "--seed" int_of_string_opt in
  let seconds = get "--seconds" float_of_string_opt in
  let trace = get "--trace" (function "0" -> Some false | "1" -> Some true | _ -> None) in
  (workload, seed, seconds, trace)

type family_run = {
  fam : string;
  trace : Perf.Trace.t;
  wall_ns : int;
  problems : string list;
  metrics : Perf.metric list;
  overhead : float;  (** traced over untraced wall time; [nan] when not measured *)
}

(* Every family's traced pass runs once, so each run reports every
   per-layer metric.  The workload's own family also runs untraced: once
   to warm up, then on either side of the traced pass; its overhead is
   the traced wall time over the mean of those two. *)
let run_family ~mine ~seed (fam, layers) =
  let untraced () =
    let wall, _, _ = layers ~trace:(Perf.Trace.create ~enabled:false) ~seed in
    float_of_int wall
  in
  let traced () =
    let trace = Perf.Trace.create ~enabled:true in
    let wall_ns, problems, metrics = layers ~trace ~seed in
    { fam; trace; wall_ns; problems; metrics; overhead = nan }
  in
  if fam <> mine then traced ()
  else begin
    ignore (untraced ());
    let u1 = untraced () in
    let r = traced () in
    let u2 = untraced () in
    { r with overhead = float_of_int r.wall_ns /. ((u1 +. u2) /. 2.) }
  end

(* Spans stay in memory until the end, then are written out and read
   back; returns how many spans the file holds ([-1] if unreadable). *)
let write_spans ~path ~name ~seed runs =
  Perf.ensure_dir Perf.out_dir;
  Bench_io.write_file ~path
    Bench_io.(
      Obj
        [
          ("host", Perf.fingerprint ~workload:name ~seed);
          ( "families",
            List
              (List.map
                 (fun r ->
                   Obj
                     [
                       ("family", String r.fam);
                       ("wall_ns", Int r.wall_ns);
                       ("spans", Perf.Trace.to_json r.trace);
                     ])
                 runs) );
        ]);
  match Bench_io.read_file ~path with
  | Error _ -> -1
  | Ok j ->
    let families = Option.value (Option.bind (Bench_io.member "families" j) Bench_io.to_list) ~default:[] in
    List.fold_left
      (fun acc f ->
        acc + List.length (Option.value (Option.bind (Bench_io.member "spans" f) Bench_io.to_list) ~default:[]))
      0 families

let traced_run ~name ~kind ~seed =
  let runs = List.map (run_family ~mine:(family kind) ~seed) families in
  let own = List.find (fun r -> r.fam = family kind) runs in
  let coverage = Perf.Trace.coverage own.trace ~wall_ns:own.wall_ns in
  Printf.printf "%s: layer spans cover %.1f%% of the traced wall time; tracing overhead %.3fx\n" name
    (100. *. coverage) own.overhead;
  let path = Filename.concat Perf.out_dir (Printf.sprintf "spans-%s-%d.json" name seed) in
  let nspans = List.fold_left (fun a r -> a + List.length (Perf.Trace.spans r.trace)) 0 runs in
  let reread = write_spans ~path ~name ~seed runs in
  Printf.printf "wrote %d spans to %s\n" nspans path;
  let problems =
    List.concat_map (fun r -> r.problems) runs
    @ if reread = nspans then [] else [ Printf.sprintf "span file %s did not re-parse" path ]
  in
  {
    Perf.correct = problems = [];
    attempted = List.length runs;
    failed = List.length (List.filter (fun r -> r.problems <> []) runs);
    problems;
    metrics =
      List.concat_map (fun r -> r.metrics) runs
      @ [
          Perf.metric "obs.trace_overhead_ratio" "x" own.overhead;
          Perf.metric "obs.span_coverage" "ratio" coverage;
        ];
  }

let () =
  let (name, kind), seed, seconds, trace = parse_args () in
  print_endline (Bench_io.to_string ~indent:false (Perf.fingerprint ~workload:name ~seed));
  let result =
    if trace then traced_run ~name ~kind ~seed
    else
      match kind with
      | `Serve -> Serve_zipf.run ~seed ~seconds ()
      | `Chaos -> Chaos_churn.run ~seed ~seconds
      | `Scale -> Scale_agg.run ~seed ~seconds
  in
  List.iter (fun p -> prerr_endline ("check failed: " ^ p)) result.Perf.problems;
  List.iter
    (fun m -> if not (Perf.valid_name m.Perf.name) then failwith ("invalid metric name " ^ m.Perf.name))
    result.Perf.metrics;
  print_endline (Bench_io.to_string ~indent:false (Perf.result_json result))
