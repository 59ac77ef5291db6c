(** Topological ordering over the live edges of a digraph. *)

exception Cycle of int list
(** Vertices involved in (or blocked by) a directed cycle. *)

val sort : Digraph.t -> int array
(** Kahn's algorithm. Raises [Cycle] when the live subgraph is not a
    DAG. The result orders every vertex, isolated ones included. On a
    view that has only removed edges relative to its base it is the
    base's own order ({!Digraph.topo_hint}), uncopied: callers must not
    mutate it. *)

val is_dag : Digraph.t -> bool

val order_index : Digraph.t -> int array
(** [order_index g] maps vertex id to its position in [sort g]. *)
