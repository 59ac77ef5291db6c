(** Strongly connected components (Tarjan), over live edges.

    Workflows must be acyclic; when validation fails, the SCCs name the
    exact vertex groups forming cycles instead of a bare "there is a
    cycle somewhere". *)

val tarjan : Digraph.t -> int list list
(** Test-only: the SCC tests check components directly;
    {!cyclic_components} builds on it.

    All SCCs; within each component vertices are ascending, and
    components appear in reverse topological order of the condensation
    (standard Tarjan emission order). *)

val cyclic_components : Digraph.t -> int list list
(** Only the components with ≥ 2 vertices — the cycles (the graph has
    no self-loops by construction). *)
