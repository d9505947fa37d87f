module IS = Set.Make (Int)

type t = {
  n : int;
  adj : IS.t array;  (* adjacency sets; removed nodes have no entry in [present] *)
  present : bool array;
}

let root = 0

let of_iter ~n iter =
  if n <= 0 then invalid_arg "Graph.of_iter: n must be positive";
  let adj = Array.make n IS.empty in
  iter (fun u v ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Graph.of_iter: endpoint out of range";
      if u = v then invalid_arg "Graph.of_iter: self-loop";
      adj.(u) <- IS.add v adj.(u);
      adj.(v) <- IS.add u adj.(v));
  { n; adj; present = Array.make n true }

let of_edges ~n edges =
  if n <= 0 then invalid_arg "Graph.of_edges: n must be positive";
  let adj = Array.make n IS.empty in
  List.iter
    (fun (u, v) ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Graph.of_edges: endpoint out of range";
      if u = v then invalid_arg "Graph.of_edges: self-loop";
      adj.(u) <- IS.add v adj.(u);
      adj.(v) <- IS.add u adj.(v))
    edges;
  { n; adj; present = Array.make n true }

let n g = g.n

let mem g u = u >= 0 && u < g.n && g.present.(u)

let neighbors g u =
  if not (mem g u) then []
  else IS.elements (IS.filter (fun v -> g.present.(v)) g.adj.(u))

let degree g u = List.length (neighbors g u)

let has_edge g u v = mem g u && mem g v && IS.mem v g.adj.(u)

let iter_edges g f =
  for u = 0 to g.n - 1 do
    if g.present.(u) then
      IS.iter (fun v -> if v > u && g.present.(v) then f u v) g.adj.(u)
  done

let fold_edges f g init =
  let acc = ref init in
  iter_edges g (fun u v -> acc := f u v !acc);
  !acc

let num_edges g = fold_edges (fun _ _ acc -> acc + 1) g 0

let fold_nodes f g init =
  let acc = ref init in
  for u = 0 to g.n - 1 do
    if g.present.(u) then acc := f u !acc
  done;
  !acc

let remove_nodes g nodes =
  let present = Array.copy g.present in
  List.iter
    (fun u ->
      if u >= 0 && u < g.n then present.(u) <- false)
    nodes;
  { g with present }

module Csr = struct
  type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

  type t = {
    nodes : int;
    offsets : ints;
    targets : ints;
  }

  let ints len : ints = Bigarray.Array1.create Bigarray.int Bigarray.c_layout len

  (* Rows follow [neighbors] exactly: absent nodes get empty rows, absent
     neighbours are dropped, and each row is sorted ascending (the order
     [IS.elements] produces).  The engine's per-round iteration order — and
     hence its PRNG stream under lossy delivery — is therefore identical to
     what the list-based view gives. *)
  let of_graph g =
    let n = g.n in
    let offsets = ints (n + 1) in
    offsets.{0} <- 0;
    for u = 0 to n - 1 do
      let deg =
        if not g.present.(u) then 0
        else IS.fold (fun v acc -> if g.present.(v) then acc + 1 else acc) g.adj.(u) 0
      in
      offsets.{u + 1} <- offsets.{u} + deg
    done;
    let targets = ints offsets.{n} in
    let pos = ref 0 in
    for u = 0 to n - 1 do
      if g.present.(u) then
        IS.iter
          (fun v ->
            if g.present.(v) then begin
              targets.{!pos} <- v;
              incr pos
            end)
          g.adj.(u)
    done;
    { nodes = n; offsets; targets }

  let nodes c = c.nodes
  let degree c u = c.offsets.{u + 1} - c.offsets.{u}

  let max_degree c =
    let m = ref 0 in
    for u = 0 to c.nodes - 1 do
      if degree c u > !m then m := degree c u
    done;
    !m

  let iter_neighbors c u f =
    for i = c.offsets.{u} to c.offsets.{u + 1} - 1 do
      f c.targets.{i}
    done

  (* Typed, so the compiler emits a direct load or store rather than a
     call to the generic Bigarray accessor. *)
  let get (a : ints) i = Bigarray.Array1.unsafe_get a i
  let set (a : ints) i x = Bigarray.Array1.unsafe_set a i x

  let bfs c ~dist ~queue src =
    let n = c.nodes in
    if src < 0 || src >= n || Bigarray.Array1.dim dist < n || Bigarray.Array1.dim queue < n then
      invalid_arg "Graph.Csr.bfs: source out of range or scratch shorter than nodes";
    (* Every index below is a node id or a queue slot, both < [n]. *)
    Bigarray.Array1.fill dist (-1);
    set dist src 0;
    set queue 0 src;
    let head = ref 0 and tail = ref 1 in
    let far = ref src and ecc = ref 0 in
    while !head < !tail do
      let u = get queue !head in
      incr head;
      let du = get dist u in
      if du > !ecc then begin
        ecc := du;
        far := u
      end;
      for i = get c.offsets u to get c.offsets (u + 1) - 1 do
        let v = get c.targets i in
        if get dist v < 0 then begin
          set dist v (du + 1);
          set queue !tail v;
          incr tail
        end
      done
    done;
    (!far, !ecc, !tail)
end

let csr = Csr.of_graph

let pp ppf g =
  Format.fprintf ppf "@[<v>graph n=%d m=%d@," g.n (num_edges g);
  iter_edges g (fun u v -> Format.fprintf ppf "%d -- %d@," u v);
  Format.fprintf ppf "@]"

let to_dot ?(name = "g") g =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "graph %s {\n" name);
  Buffer.add_string buf "  0 [shape=doublecircle];\n";
  iter_edges g (fun u v -> Buffer.add_string buf (Printf.sprintf "  %d -- %d;\n" u v));
  Buffer.add_string buf "}\n";
  Buffer.contents buf
