(** Immutable undirected graphs over integer node ids [0 .. n-1].

    Node [0] is, by convention throughout the library, the aggregation
    root (the base station / gateway of the paper's motivating systems). *)

type t

val root : int
(** The distinguished root id (always [0]). *)

val of_edges : n:int -> (int * int) list -> t
(** [of_edges ~n edges] builds a graph on [n] nodes.  Self-loops are
    rejected; duplicate edges are collapsed.  Raises [Invalid_argument]
    on out-of-range endpoints. *)

val of_iter : n:int -> ((int -> int -> unit) -> unit) -> t
(** [of_iter ~n iter] builds a graph from a streamed edge emission:
    [iter emit] must call [emit u v] once per edge.  Same validation and
    dedup as {!of_edges} with no intermediate list — the shared edge
    source of [Gen.iter_edges] and [Scale.Bigraph]. *)

val n : t -> int
(** Number of nodes. *)

val num_edges : t -> int

val neighbors : t -> int -> int list
(** Sorted adjacency list. *)

val degree : t -> int -> int

val has_edge : t -> int -> int -> bool

val iter_edges : t -> (int -> int -> unit) -> unit
(** [iter_edges g f] calls [f u v] once per present edge, [u < v],
    ascending by [u] then [v]. *)

val fold_edges : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over present edges in {!iter_edges} order. *)

val fold_nodes : (int -> 'a -> 'a) -> t -> 'a -> 'a

val remove_nodes : t -> int list -> t
(** Graph with the given nodes (and their incident edges) deleted.  Ids
    are preserved; removed nodes become isolated and are excluded from
    [neighbors]/[iter_edges].  Used to model crashed nodes. *)

val mem : t -> int -> bool
(** Whether the node is present (not removed). *)

(** {2 Flat adjacency (CSR) view}

    The simulation hot path iterates adjacency once per node per round;
    the set-backed {!neighbors} allocates a filtered set plus a list on
    every call.  {!Csr} is a compressed-sparse-row snapshot — two flat
    Bigarray int arrays — read with zero allocation.  It is the library's
    one CSR type: {!csr} snapshots a materialised graph, and
    [Scale.Bigraph] streams million-node topologies straight into it.
    The arrays live off the OCaml heap, so the GC neither scans nor moves
    them (~16 bytes per directed edge). *)

module Csr : sig
  type graph := t

  type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

  type t = {
    nodes : int;
    offsets : ints;
        (** [nodes + 1] entries; node [u]'s neighbours live at indices
            [offsets.{u} .. offsets.{u+1} - 1] of [targets]. *)
    targets : ints;  (** each row sorted ascending *)
  }
  (** The arrays are exposed so hot loops can index them directly; treat
      them as read-only.  Two snapshots of the same adjacency are equal
      under [=]. *)

  val ints : int -> ints
  (** A fresh, uninitialised off-heap int array of the given length. *)

  val of_graph : graph -> t
  (** Snapshot the present subgraph.  Row [u] lists exactly
      [neighbors g u] in the same (ascending) order; removed nodes get
      empty rows. *)

  val nodes : t -> int
  val degree : t -> int -> int
  val max_degree : t -> int
  val iter_neighbors : t -> int -> (int -> unit) -> unit

  val bfs : t -> dist:ints -> queue:ints -> int -> int * int * int
  (** [bfs c ~dist ~queue src] is breadth-first search from [src] over
      caller-owned scratch of at least [nodes] entries each.  On return
      [dist.{v}] is the hop distance of [v] (−1 if unreached) and
      [queue] holds the reached nodes in visiting order.  The result is
      [(far, ecc, reached)]: the first node visited at the largest
      distance, that distance, and the number of nodes reached.  Raises
      [Invalid_argument] when [src] is not a node or the scratch is
      shorter than [nodes]. *)
end

val csr : t -> Csr.t
(** Alias for {!Csr.of_graph}. *)

val pp : Format.formatter -> t -> unit

val to_dot : ?name:string -> t -> string
(** Graphviz rendering of the present subgraph; the root is drawn as a
    double circle. *)
