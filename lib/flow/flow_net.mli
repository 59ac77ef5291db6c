(** Residual flow networks over the live edges of a digraph.

    Arcs are stored in forward/backward pairs ([arc i] and [arc (i lxor
    1)] are inverses), the classic adjacency-array representation both
    Dinic's algorithm and Edmonds–Karp operate on. Capacities are floats;
    the valuation-derived weights of the paper are fractional in general.
    [eps] is the tolerance below which residual capacity counts as
    zero. *)

type t

val eps : float

val of_digraph : Cdw_graph.Digraph.t -> capacity:(Cdw_graph.Digraph.edge -> float) -> t
(** One forward arc per live edge, zero-capacity reverse arc. Raises
    [Invalid_argument] on negative capacities. *)

val n_vertices : t -> int

val arc_dst : t -> int -> int

val residual : t -> int -> float

val push : t -> int -> float -> unit
(** Push flow on an arc: decrease its residual, increase its pair's. *)

val arcs_from : t -> int -> int list
(** Arc indices leaving a vertex (both directions' stubs live here). *)
