(** Edge valuations π (Eq. 13) and dependency-aware edge removal.

    In the linearly-additive model the valuation of an edge leaving
    vertex [v] is the sum of the valuations entering [v]; edges leaving
    user vertices carry their initial valuation. Removing an edge can
    starve an algorithm of all inputs, in which case its out-edges carry
    no data anymore and "must also be removed" (§5) — the
    [updateDependencies] step of the paper's pseudo-code, implemented
    here as a structural cascade. *)

type model =
  | Linear_additive  (** Eq. 13: out = Σ in. The model evaluated (CDW-LA). *)
  | Subadditive of float
      (** out = min (Σ in, cap): a redundancy-aware variant from the
          paper's open-problems discussion (§8). *)

val compute : ?model:model -> Workflow.t -> float array
(** Valuation per edge id over the live graph; removed edges get 0.
    Requires the live graph to be a DAG (raises
    [Cdw_graph.Topo.Cycle] otherwise).

    One flat sweep in topological order over the graph's CSR arrays
    ({!Cdw_graph.Digraph.csr}) and the workflow's flat metadata
    ({!Workflow.flat}): no closure per edge and no boxed accumulator.
    Each vertex sums its live in-edges in adjacency order, so the result
    is bit-identical on a builder and on any view of it. On a view the
    arrays are the frozen base's, uncopied; a builder is compiled to
    them on each call. *)

val remove_with_cascade :
  Workflow.t -> Cdw_graph.Digraph.edge list -> Cdw_graph.Digraph.edge list
(** Remove the given edges, then cascade: while some algorithm vertex
    has no live in-edge but live out-edges, remove its out-edges (their
    valuation would be 0). Returns every edge actually removed — the
    requested ones that were still live plus the cascade — in removal
    order, so the operation can be undone with {!restore}. *)

val restore : Workflow.t -> Cdw_graph.Digraph.edge list -> unit
