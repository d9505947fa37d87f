(* Shared plumbing of the benchmark: clocks, percentiles, metrics, the
   result line, the host fingerprint and the in-memory span recorder. *)

module Bench_io = Ftagg.Bench_io

(* ---- clocks ---- *)

(* Monotonic nanoseconds; span timings of sub-microsecond layer calls
   need more resolution than [Unix.gettimeofday] gives. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs_since t0 = float_of_int (now_ns () - t0) /. 1e9

(* ---- statistics ---- *)

let sorted_copy a =
  let s = Array.copy a in
  Array.sort compare s;
  s

(* Nearest-rank percentile of an ascending array ([p] in 0..100).  The
   epsilon keeps [p * n / 100] from rounding up past an exact rank. *)
let rank n p =
  max 0 (min (n - 1) (int_of_float (Float.ceil ((p *. float_of_int n /. 100.) -. 1e-9)) - 1))
let percentile sorted p = sorted.(rank (Array.length sorted) p)

(* Samples strictly after the nearest-rank position of [p]. *)
let beyond n p = n - rank n p - 1

(* A tail percentile is reported only when at least this many samples lie
   beyond it; otherwise it is one outlier's value, not a percentile. *)
let min_beyond = 10

let reportable n p = n > 0 && beyond n p >= min_beyond

(* Smallest sample count at which [p] is reportable. *)
let min_samples p =
  let rec go n = if reportable n p then n else go (n + 1) in
  go 1

let median xs =
  match xs with
  | [] -> nan
  | _ -> percentile (sorted_copy (Array.of_list xs)) 50.

(* ---- metrics and the result line ---- *)

type metric = { name : string; unit_ : string; value : float }

let metric name unit_ value = { name; unit_; value }

(* Metric names: a letter or digit first, then at most 63 more of
   [A-Za-z0-9_.-]. *)
let valid_name s =
  let ok = function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false in
  String.length s >= 1
  && String.length s <= 64
  && (match s.[0] with '_' | '.' | '-' -> false | _ -> true)
  && String.for_all ok s

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  problems : string list;  (** why [correct] is false, one line each *)
}

(* One stretch of a run: operations completed, the wall time they took,
   and the latency of each one that was timed (ns). *)
type interval = { ops : int; wall_ns : int; latencies_ns : float array }

(* The end-to-end metrics every workload reports.  A run is cut into
   intervals and each figure is the median over them, so a burst of load
   from elsewhere on the host moves one interval, not the figure.  The
   p99 comes from each interval when every interval has enough samples
   beyond it, and otherwise from all samples pooled; with too few even
   then it is a problem. *)
let end_to_end ~intervals ~rss_kib ~setup_s =
  let rate i = float_of_int i.ops /. (float_of_int i.wall_ns /. 1e9) in
  Printf.printf "per-interval ops/s: %s\n"
    (String.concat " " (List.rev_map (fun i -> Printf.sprintf "%.4g" (rate i)) intervals));
  let per f = median (List.map f intervals) in
  let sorted i = sorted_copy i.latencies_ns in
  let all = sorted_copy (Array.concat (List.map (fun i -> i.latencies_ns) intervals)) in
  let n = Array.length all in
  let p99 =
    if List.for_all (fun i -> reportable (Array.length i.latencies_ns) 99.) intervals then
      per (fun i -> percentile (sorted i) 99.)
    else if reportable n 99. then percentile all 99.
    else nan
  in
  ( [
      metric "ops_per_s" "1/s" (per rate);
      metric "latency_p50_ms" "ms" (per (fun i -> percentile (sorted i) 50.) /. 1e6);
      metric "latency_p99_ms" "ms" (p99 /. 1e6);
      metric "peak_rss_mib" "MiB" (float_of_int rss_kib /. 1024.);
      metric "setup_s" "s" setup_s;
    ],
    if Float.is_nan p99 then [ Printf.sprintf "only %d latency samples, too few for a p99" n ] else [] )

let result_json r =
  Bench_io.(
    Obj
      [
        ("correct", Bool r.correct);
        ("attempted", Int r.attempted);
        ("failed", Int r.failed);
        ( "metrics",
          Obj
            (List.map
               (fun m -> (m.name, Obj [ ("value", Float m.value); ("unit", String m.unit_) ]))
               r.metrics) );
      ])

(* ---- memory and GC ---- *)

(* Peak resident set ([VmHWM]) of a process, in KiB. *)
let vmhwm_kib pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> None
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Option.some
      | _ -> scan ()
    in
    scan ()

type gc_delta = { minor_words : float; promoted_words : float; major_collections : int }

let gc_measure f =
  let a = Gc.quick_stat () in
  let r = f () in
  let b = Gc.quick_stat () in
  ( r,
    {
      minor_words = b.Gc.minor_words -. a.Gc.minor_words;
      promoted_words = b.Gc.promoted_words -. a.Gc.promoted_words;
      major_collections = b.Gc.major_collections - a.Gc.major_collections;
    } )

(* ---- host fingerprint ---- *)

let read_first_line path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    (try Some (String.trim (input_line ic)) with End_of_file -> None)

(* CPUs this process may run on, from the affinity list in
   /proc/self/status ("0-1,4"); falls back to the runtime's count. *)
let nproc () =
  let from_status () =
    match open_in "/proc/self/status" with
    | exception Sys_error _ -> None
    | ic ->
      Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | line when String.starts_with ~prefix:"Cpus_allowed_list:" line ->
          let list = String.trim (String.sub line 18 (String.length line - 18)) in
          let count item =
            match String.split_on_char '-' item with
            | [ _ ] -> 1
            | [ a; b ] -> int_of_string b - int_of_string a + 1
            | _ -> failwith "range"
          in
          (try Some (List.fold_left (fun acc i -> acc + count i) 0 (String.split_on_char ',' list))
           with Failure _ -> None)
        | _ -> scan ()
      in
      scan ()
  in
  match from_status () with Some n -> n | None -> Domain.recommended_domain_count ()

(* The commit of the tree being measured, when it is a git checkout. *)
let git_commit () =
  match read_first_line ".git/HEAD" with
  | None -> "unknown"
  | Some head when String.starts_with ~prefix:"ref: " head -> (
    let ref_ = String.sub head 5 (String.length head - 5) in
    match read_first_line (Filename.concat ".git" ref_) with
    | Some c -> c
    | None -> "unknown")
  | Some c -> c

let fingerprint ~workload ~seed =
  Bench_io.(
    Obj
      [
        ("workload", String workload);
        ("seed", Int seed);
        ("nproc", Int (nproc ()));
        ("recommended_domain_count", Int (Domain.recommended_domain_count ()));
        ("ocaml", String Sys.ocaml_version);
        ("commit", String (git_commit ()));
      ])

(* ---- scratch files ---- *)

(* Sockets, stores and span files live under the current directory, so a
   run touches nothing outside its checkout. *)
let out_dir = ".bench_out"

let ensure_dir d = if not (Sys.file_exists d) then Unix.mkdir d 0o755

let rec rm_rf p =
  match Unix.lstat p with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
    Unix.rmdir p
  | _ -> Sys.remove p

(* ---- spans ---- *)

(* Spans are recorded by the benchmark around its calls into each layer.
   A span's parent is the span open when it started; every span carries
   the id of the request (or run) it belongs to.  With [enabled = false]
   [span] only calls its body, so one code path serves the traced and
   the untraced pass. *)
module Trace = struct
  type span = { id : int; name : string; start : int; stop : int; parent : int; req : int }

  type t = {
    enabled : bool;
    mutable spans : span list;
    mutable next : int;
    mutable open_ : int list;  (* ids of the spans enclosing the current point *)
  }

  let create ~enabled = { enabled; spans = []; next = 0; open_ = [] }

  let span t ~req name f =
    if not t.enabled then f ()
    else begin
      let id = t.next in
      t.next <- id + 1;
      let parent = match t.open_ with p :: _ -> p | [] -> -1 in
      t.open_ <- id :: t.open_;
      let start = now_ns () in
      let finish () =
        let stop = now_ns () in
        t.open_ <- List.tl t.open_;
        t.spans <- { id; name; start; stop; parent; req } :: t.spans
      in
      match f () with
      | r ->
        finish ();
        r
      | exception e ->
        finish ();
        raise e
    end

  let spans t = List.rev t.spans
  let durations t name = List.filter_map (fun s -> if s.name = name then Some (s.stop - s.start) else None) (spans t)

  (* Median duration of the spans called [name], in ns ([nan] if none). *)
  let median_ns t name = median (List.map float_of_int (durations t name))
  let total_ns t name = List.fold_left ( + ) 0 (durations t name)

  (* Share of [wall_ns] covered by layer spans: the children of root
     spans (which never overlap one another). *)
  let coverage t ~wall_ns =
    let roots = Hashtbl.create 1024 in
    List.iter (fun s -> if s.parent < 0 then Hashtbl.replace roots s.id ()) t.spans;
    let covered =
      List.fold_left
        (fun acc s -> if Hashtbl.mem roots s.parent then acc + (s.stop - s.start) else acc)
        0 t.spans
    in
    float_of_int covered /. float_of_int (max 1 wall_ns)

  let to_json t =
    Bench_io.List
      (List.map
         (fun s ->
           Bench_io.(
             Obj
               [
                 ("id", Int s.id);
                 ("name", String s.name);
                 ("start_ns", Int s.start);
                 ("end_ns", Int s.stop);
                 ("parent", Int s.parent);
                 ("req", Int s.req);
               ]))
         (spans t))
end
