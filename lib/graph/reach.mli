(** Reachability over live edges.

    The paper's model is built on reachability: a purpose's utility is a
    function of its *reachability subgraph* (all vertices that reach it),
    and the cut-weight heuristics need, per edge, the set of purposes
    reachable from its head. *)

val from_source : Digraph.t -> int -> bool array
(** [from_source g s].(v) iff [v] is reachable from [s] (BFS; [s]
    reaches itself). *)

val to_target : Digraph.t -> int -> bool array
(** [to_target g t].(v) iff [t] is reachable from [v] (reverse BFS;
    includes [t]). *)

val exists_path : Digraph.t -> int -> int -> bool
(** True iff a non-empty directed path [s → … → t] exists ([s <> t]
    required: workflow constraints never relate a vertex to itself).
    The BFS stops once it reaches [t]. *)

val target_bitsets : Digraph.t -> targets:int array -> Cdw_util.Bitset.t array
(** [target_bitsets g ~targets].(v) is the set of indices [i] such that
    [targets.(i)] is reachable from [v] (a target reaches itself).
    Computed by one DP sweep in reverse topological order; requires the
    live subgraph to be a DAG. *)

val reachability_subgraph_edges : Digraph.t -> int -> Digraph.edge list
(** Live edges [(u, v)] such that the given target is reachable from [v]
    (or [v] is the target): the edge set [E_p] of the paper's
    reachability subgraph [G_p]. *)

(** Reusable all-pairs reachability snapshots.

    A snapshot captures, for every vertex, the bitset of vertices
    reachable from it over the live edges at construction time — one DP
    sweep in reverse topological order, [O(V·E/w)] words total. Queries
    are then O(1), which is what a serving layer needs when the same
    immutable base graph answers connectivity questions for thousands of
    user sessions (each per-query BFS would re-walk the whole graph).

    The snapshot is immutable and does not observe later edge removals;
    build it once per pristine base graph and share it freely across
    domains (reads only). Requires the live subgraph to be a DAG. *)
module Snapshot : sig
  type t

  val create : Digraph.t -> t

  val n_vertices : t -> int

  val reaches : t -> int -> int -> bool
  (** [reaches s u v] iff a directed (possibly empty) path [u → … → v]
      existed when the snapshot was taken; [reaches s v v] is [true]. *)
end
