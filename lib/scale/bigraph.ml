module Graph = Ftagg_graph.Graph
module Gen = Ftagg_graph.Gen
module Prng = Ftagg_util.Prng

module Csr = Graph.Csr

type ints = Csr.ints

type t = Csr.t = {
  nodes : int;
  offsets : ints;
  targets : ints;
}

let make_ints = Csr.ints

(* Typed, so the compiler emits a direct load or store rather than a
   call to the generic Bigarray accessor. *)
let get (a : ints) i = Bigarray.Array1.unsafe_get a i
let set (a : ints) i x = Bigarray.Array1.unsafe_set a i x

(* ------------------------------------------------------------------ *)
(* Row sorting: in-place quicksort with an insertion-sort tail.  Rows  *)
(* are usually tiny (bounded-degree topologies) but can reach n on     *)
(* dense test graphs, so plain insertion sort is not enough.           *)
(* ------------------------------------------------------------------ *)

let insertion_sort a lo hi =
  for i = lo + 1 to hi - 1 do
    let x = get a i in
    let j = ref (i - 1) in
    while !j >= lo && get a !j > x do
      set a (!j + 1) (get a !j);
      decr j
    done;
    set a (!j + 1) x
  done

let rec sort_range a lo hi =
  let len = hi - lo in
  if len > 1 then
    if len <= 24 then insertion_sort a lo hi
    else begin
      let x = get a lo and y = get a (lo + (len / 2)) and z = get a (hi - 1) in
      let pivot = max (min x y) (min (max x y) z) in
      let i = ref lo and j = ref (hi - 1) in
      while !i <= !j do
        while get a !i < pivot do
          incr i
        done;
        while get a !j > pivot do
          decr j
        done;
        if !i <= !j then begin
          let tmp = get a !i in
          set a !i (get a !j);
          set a !j tmp;
          incr i;
          decr j
        end
      done;
      sort_range a lo (!j + 1);
      sort_range a !i hi
    end

(* ------------------------------------------------------------------ *)
(* Streaming build                                                     *)
(* ------------------------------------------------------------------ *)

(* 2^20 ints = 8 MB per chunk.  Even, so (u, v) pairs never straddle a
   chunk boundary. *)
let chunk_words = 1 lsl 20

let of_iter ~n iter =
  if n <= 0 then invalid_arg "Bigraph.of_iter: n must be positive";
  (* Pass 1: stream endpoint pairs into fixed-size chunks. *)
  let full = ref [] in
  let cur = ref (make_ints chunk_words) in
  let len = ref 0 in
  let push x =
    if !len = chunk_words then begin
      full := !cur :: !full;
      cur := make_ints chunk_words;
      len := 0
    end;
    set !cur !len x;
    incr len
  in
  iter (fun u v ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Bigraph.of_iter: endpoint out of range";
      if u = v then invalid_arg "Bigraph.of_iter: self-loop";
      push u;
      push v);
  let iter_pairs f =
    let scan chunk l =
      let i = ref 0 in
      while !i < l do
        f (get chunk !i) (get chunk (!i + 1));
        i := !i + 2
      done
    in
    List.iter (fun c -> scan c chunk_words) (List.rev !full);
    scan !cur !len
  in
  (* Pass 2: degree count, prefix sums, fill (reusing the degree array as
     per-row cursors). *)
  let deg = make_ints n in
  Bigarray.Array1.fill deg 0;
  iter_pairs (fun u v ->
      set deg u (get deg u + 1);
      set deg v (get deg v + 1));
  let offsets = make_ints (n + 1) in
  set offsets 0 0;
  for u = 0 to n - 1 do
    set offsets (u + 1) (get offsets u + get deg u)
  done;
  let targets = make_ints (get offsets n) in
  for u = 0 to n - 1 do
    set deg u (get offsets u)
  done;
  iter_pairs (fun u v ->
      set targets (get deg u) v;
      set deg u (get deg u + 1);
      set targets (get deg v) u;
      set deg v (get deg v + 1));
  (* Pass 3: sort every row, then compact duplicates in place.  The write
     cursor never overtakes the read cursor, so one array suffices; old
     row bounds are carried in [row_start] because [offsets.(u)] is
     rewritten as soon as row u is compacted. *)
  for u = 0 to n - 1 do
    sort_range targets (get offsets u) (get offsets (u + 1))
  done;
  let w = ref 0 in
  let row_start = ref 0 in
  for u = 0 to n - 1 do
    let lo = !row_start and hi = get offsets (u + 1) in
    row_start := hi;
    set offsets u !w;
    let prev = ref (-1) in
    for i = lo to hi - 1 do
      let v = get targets i in
      if v <> !prev then begin
        set targets !w v;
        prev := v;
        incr w
      end
    done
  done;
  set offsets n !w;
  { nodes = n; offsets; targets = Bigarray.Array1.sub targets 0 !w }

let n (t : t) = t.nodes
let num_edges (t : t) = Bigarray.Array1.dim t.targets / 2
let degree = Csr.degree
let iter_neighbors = Csr.iter_neighbors

let to_graph (t : t) =
  Graph.of_iter ~n:t.nodes (fun emit ->
      for u = 0 to t.nodes - 1 do
        iter_neighbors t u (fun v -> if v > u then emit u v)
      done)

(* ------------------------------------------------------------------ *)
(* Scale topologies                                                    *)
(* ------------------------------------------------------------------ *)

type spec =
  | Grid
  | Torus
  | Random_regular of int
  | Pref_attach of int

let spec_name = function
  | Grid -> "grid"
  | Torus -> "torus"
  | Random_regular k -> Printf.sprintf "random_regular(%d)" k
  | Pref_attach m -> Printf.sprintf "pref_attach(%d)" m

let spec_of_family = function
  | Gen.Grid -> Some Grid
  | Gen.Torus -> Some Torus
  | Gen.Random_regular k -> Some (Random_regular k)
  | _ -> None

let iter_pref_attach ~n ~m ~seed emit =
  if m < 1 then invalid_arg "Bigraph.pref_attach: need m >= 1";
  if n < m + 2 then invalid_arg "Bigraph.pref_attach: need n >= m + 2";
  let rng = Prng.create seed in
  (* Endpoint multiset: every emitted edge pushes both endpoints, so a
     uniform slot draw samples nodes proportionally to degree. *)
  let ends = Array.make (2 * (m + ((n - m - 1) * m))) 0 in
  let fill = ref 0 in
  let add u v =
    emit u v;
    ends.(!fill) <- u;
    ends.(!fill + 1) <- v;
    fill := !fill + 2
  in
  (* Seed star on nodes 0..m keeps the root a natural hub. *)
  for i = 1 to m do
    add 0 i
  done;
  for u = m + 1 to n - 1 do
    for _j = 1 to m do
      (* Resample a few times to avoid a self-edge (u enters [ends] with
         its first link); repeated targets are allowed — the CSR dedups,
         so effective degree can be < m. *)
      let rec pick tries =
        let v = ends.(Prng.int rng !fill) in
        if v <> u then v else if tries >= 20 then u - 1 else pick (tries + 1)
      in
      add u (pick 0)
    done
  done

let iter_spec spec ~n ~seed emit =
  match spec with
  | Grid -> Gen.iter_edges Gen.Grid ~n ~seed emit
  | Torus -> Gen.iter_edges Gen.Torus ~n ~seed emit
  | Random_regular k -> Gen.iter_edges (Gen.Random_regular k) ~n ~seed emit
  | Pref_attach m -> iter_pref_attach ~n ~m ~seed emit

let build spec ~n ~seed = of_iter ~n (iter_spec spec ~n ~seed)

(* ------------------------------------------------------------------ *)
(* Validation and structure                                            *)
(* ------------------------------------------------------------------ *)

let degree_histogram (t : t) =
  let tbl = Hashtbl.create 16 in
  for u = 0 to t.nodes - 1 do
    let d = degree t u in
    Hashtbl.replace tbl d (1 + Option.value ~default:0 (Hashtbl.find_opt tbl d))
  done;
  Hashtbl.fold (fun d c acc -> (d, c) :: acc) tbl [] |> List.sort compare

let has_edge (t : t) u v =
  (* binary search in row u *)
  let lo = ref (get t.offsets u) and hi = ref (get t.offsets (u + 1)) in
  let found = ref false in
  while (not !found) && !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let x = get t.targets mid in
    if x = v then found := true else if x < v then lo := mid + 1 else hi := mid
  done;
  !found

(* [sweep t src] is [Csr.bfs] from [src]; the scratch is allocated once
   per [sweep t] and shared by its calls. *)
let sweep (t : t) =
  let dist = make_ints t.nodes and queue = make_ints t.nodes in
  Csr.bfs t ~dist ~queue

let connected (t : t) =
  let _, _, reached = sweep t Graph.root in
  reached = t.nodes

let pseudo_diameter t =
  let bfs = sweep t in
  let far, _, _ = bfs Graph.root in
  let _, ecc, _ = bfs far in
  max ecc 1

let validate ?spec (t : t) =
  let exception Bad of string in
  let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt in
  try
    for u = 0 to t.nodes - 1 do
      let lo = get t.offsets u and hi = get t.offsets (u + 1) in
      if lo > hi then bad "node %d: negative row" u;
      for i = lo to hi - 1 do
        let v = get t.targets i in
        if v < 0 || v >= t.nodes then bad "node %d: target %d out of range" u v;
        if v = u then bad "node %d: self-loop" u;
        if i > lo && v <= get t.targets (i - 1) then bad "node %d: row not strictly ascending" u;
        if not (has_edge t v u) then bad "edge %d-%d not symmetric" u v
      done
    done;
    if not (connected t) then bad "graph is disconnected from the root";
    (match spec with
    | None -> ()
    | Some s ->
      let min_deg = ref max_int and max_deg = ref 0 in
      for u = 0 to t.nodes - 1 do
        let d = degree t u in
        if d < !min_deg then min_deg := d;
        if d > !max_deg then max_deg := d
      done;
      let envelope name lo hi =
        if !min_deg < lo then bad "%s: min degree %d < %d" name !min_deg lo;
        match hi with
        | Some h when !max_deg > h -> bad "%s: max degree %d > %d" name !max_deg h
        | _ -> ()
      in
      match s with
      | Grid -> envelope "grid" 1 (Some 4)
      | Torus -> envelope "torus" 2 (Some 4)
      | Random_regular k -> envelope "random_regular" 2 (Some (k + 2))
      | Pref_attach _ -> envelope "pref_attach" 1 None);
    Ok ()
  with Bad msg -> Error msg
