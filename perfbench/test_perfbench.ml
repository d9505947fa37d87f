(* Tests of the benchmark's own machinery: the percentile rule, the
   seeded key stream, metric names, and serve-zipf's clean-up when a
   check fails. *)

open Ftagg_perfbench

let percentile_rule () =
  Alcotest.(check int) "p99 needs 1000 samples" 1000 (Perf.min_samples 99.);
  Alcotest.(check bool) "999 samples: 9 beyond p99" false (Perf.reportable 999 99.);
  Alcotest.(check int) "1000 samples: 10 beyond p99" 10 (Perf.beyond 1000 99.);
  Alcotest.(check int) "p50 needs 20 samples" 20 (Perf.min_samples 50.);
  Alcotest.(check bool) "p99.9 at 10000" true (Perf.reportable 10000 99.9);
  Alcotest.(check bool) "p99.9 at 9999" false (Perf.reportable 9999 99.9);
  let sorted = Array.init 1000 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 0.)) "nearest-rank p50" 500. (Perf.percentile sorted 50.);
  Alcotest.(check (float 0.)) "nearest-rank p99" 990. (Perf.percentile sorted 99.);
  let interval n v = { Perf.ops = n; wall_ns = 1_000_000_000; latencies_ns = Array.make n v } in
  let p99 intervals =
    let metrics, problems = Perf.end_to_end ~intervals ~rss_kib:1024 ~setup_s:1. in
    ((List.find (fun m -> m.Perf.name = "latency_p99_ms") metrics).Perf.value, problems)
  in
  Alcotest.(check bool) "999 samples: no p99" true (snd (p99 [ interval 999 1e6 ]) <> []);
  Alcotest.(check (pair (float 0.) (list string))) "two short intervals pool"
    (3., []) (p99 [ interval 600 1e6; interval 600 3e6 ]);
  Alcotest.(check (pair (float 0.) (list string))) "median of per-interval p99s"
    (2., []) (p99 [ interval 1000 1e6; interval 1000 2e6; interval 1000 3e6 ])

let key_stream () =
  let take seed = let k = Serve_zipf.keys ~seed in List.init 5000 (fun _ -> Serve_zipf.next k) in
  let a = take 7 in
  Alcotest.(check (list int)) "same seed, same keys" a (take 7);
  Alcotest.(check bool) "another seed, other keys" true (a <> take 8);
  Alcotest.(check bool) "keys index the spec table" true
    (List.for_all (fun k -> k >= 0 && k < Serve_zipf.distinct) a);
  (* skewed: the hottest key is drawn far more often than 1 in 1000 *)
  let counts = Array.make Serve_zipf.distinct 0 in
  List.iter (fun k -> counts.(k) <- counts.(k) + 1) a;
  Alcotest.(check bool) "Zipf skew" true (Array.fold_left max 0 counts > 5000 / 20)

let metric_names () =
  List.iter
    (fun (s, ok) -> Alcotest.(check bool) s ok (Perf.valid_name s))
    [
      ("latency_p50_ms", true);
      ("transport.frame_feed_ns", true);
      ("executor.speedup_2dom", true);
      ("a-b", true);
      ("", false);
      ("has space", false);
      ("p99/ms", false);
      (".leading", false);
      (String.make 65 'a', false);
    ];
  let metrics, _ =
    Perf.end_to_end ~intervals:[ { Perf.ops = 1; wall_ns = 1; latencies_ns = [| 1. |] } ] ~rss_kib:1
      ~setup_s:1.
  in
  Alcotest.(check int) "five end-to-end metrics" 5 (List.length metrics);
  List.iter (fun m -> Alcotest.(check bool) m.Perf.name true (Perf.valid_name m.Perf.name)) metrics

(* A check that raises mid-run must still leave no child process, socket
   or store behind. *)
let serve_cleanup () =
  let tag = "cleanup-test" in
  (match
     Serve_zipf.run ~check:(fun _ -> failwith "planted check failure") ~tag ~seed:1 ~seconds:0.1 ()
   with
  | _ -> Alcotest.fail "the planted check did not fail the run"
  | exception Failure msg -> Alcotest.(check string) "the check's failure" "planted check failure" msg);
  (match Unix.waitpid [ Unix.WNOHANG ] (-1) with
  | _ -> Alcotest.fail "a server child is still running"
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ());
  let left =
    if Sys.file_exists Perf.out_dir then
      List.filter (String.starts_with ~prefix:tag) (Array.to_list (Sys.readdir Perf.out_dir))
    else []
  in
  Alcotest.(check (list string)) "no socket or store left" [] left

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          Alcotest.test_case "percentile rule" `Quick percentile_rule;
          Alcotest.test_case "seeded key stream" `Quick key_stream;
          Alcotest.test_case "metric names" `Quick metric_names;
          Alcotest.test_case "serve-zipf cleans up after a failed check" `Quick serve_cleanup;
        ] );
    ]
