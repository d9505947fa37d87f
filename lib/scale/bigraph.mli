(** Streaming million-node graphs into the library's one CSR type,
    {!Ftagg_graph.Graph.Csr}, built from a single pass over an edge
    emission.

    The materialised {!Ftagg_graph.Graph} costs one [Set.Make(Int)] node
    per edge endpoint (~hundreds of bytes/edge with boxing) — fine at
    10^3 nodes, hopeless at 10^6.  A CSR stores the same adjacency as
    two flat off-heap int arrays (~16 bytes/directed edge), so a
    1M-node, 4M-edge topology is ~130 MB instead of many GB, and the GC
    never scans it.

    Construction streams: {!of_iter} consumes the same [emit u v]
    emission that [Gen.iter_edges] produces (one edge source for both
    the small-graph and the scale path), buffering endpoints in fixed
    8 MB chunks, then counting, prefix-summing, filling, sorting and
    deduplicating each row in place.  Rows end up sorted ascending with
    self-loops and duplicates dropped — exactly what [Graph.csr] gives
    for [Graph.of_iter] of the same emission, so the two are equal under
    [=] (the differential tests pin it) and the round kernel sees the
    same neighbour order, PRNG streams and inboxes on either. *)

type ints = Ftagg_graph.Graph.Csr.ints

type t = Ftagg_graph.Graph.Csr.t = private {
  nodes : int;  (** node count *)
  offsets : ints;  (** [nodes + 1] entries *)
  targets : ints;  (** [2m] entries; row [u] sorted ascending *)
}
(** Exposed for hot loops; treat the arrays as read-only.  [Graph.csr g]
    is a [t] too: snapshot a materialised graph with it. *)

val of_iter : n:int -> ((int -> int -> unit) -> unit) -> t
(** [of_iter ~n iter] builds the CSR from [iter emit].  Duplicate edges
    collapse; self-loops and out-of-range endpoints raise
    [Invalid_argument] (matching [Graph.of_iter]). *)

val to_graph : t -> Ftagg_graph.Graph.t
(** Materialise (small graphs only — costs what [Graph.t] costs). *)

val n : t -> int
val num_edges : t -> int
val degree : t -> int -> int
val iter_neighbors : t -> int -> (int -> unit) -> unit

(** {2 Scale topologies} *)

type spec =
  | Grid
  | Torus
  | Random_regular of int
  | Pref_attach of int
      (** Barabási–Albert preferential attachment: each new node links to
          [m] existing nodes sampled proportionally to degree (repeated
          sampling may collapse, so degrees are approximately [m]+).
          Heavy-tailed degrees — the hub-and-spoke contrast to the
          bounded-degree families.  Needs [n >= m + 2]. *)

val spec_name : spec -> string

val spec_of_family : Ftagg_graph.Gen.family -> spec option
(** The scale counterpart of a [Gen] family, when one exists (grid,
    torus, random-regular). *)

val iter_spec : spec -> n:int -> seed:int -> (int -> int -> unit) -> unit
(** The edge emission: grid/torus/random-regular delegate to
    [Gen.iter_edges] (same seed ⇒ same edges as the materialised
    generators); preferential attachment is native here. *)

val build : spec -> n:int -> seed:int -> t
(** [of_iter ~n (iter_spec spec ~n ~seed)]. *)

(** {2 Validation and structure} *)

val degree_histogram : t -> (int * int) list
(** [(degree, node_count)] pairs, ascending by degree. *)

val validate : ?spec:spec -> t -> (unit, string) result
(** Structural soundness: every row strictly ascending (no self-loops or
    duplicates), adjacency symmetric, graph connected from the root; with
    [?spec], additionally that the degree histogram fits the family's
    envelope (grid/torus within [1..4] resp. [2..4], random-regular
    within [2..k+2], preferential attachment minimum ≥ 1). *)

val connected : t -> bool

val pseudo_diameter : t -> int
(** Double-sweep BFS lower bound on the diameter (exact on trees, and on
    the generators above empirically tight): BFS from the root, then BFS
    again from the farthest node found.  At least 1.  The scale
    substitute for [Params.make]'s exact all-pairs computation, which is
    infeasible at 10^6 nodes. *)
