(** Directed graphs with dense integer vertex and edge identifiers, in
    two layers: a mutable {e builder} for construction and a frozen CSR
    snapshot ({!Frozen.t}) with copy-free {e views} for serving.

    This is the graph substrate for the whole library (the paper's
    implementation used NetworkX). Vertices are [0 .. n_vertices - 1].
    Edges receive dense ids on creation and are *soft-removed*: removal
    flips a bit in the graph's removal mask so that edge ids stay stable
    for valuation arrays, flow networks and LP variables built on top;
    [restore_edge] undoes a removal, which the branch-and-bound searches
    rely on.

    {!freeze} is the explicit boundary between the layers: it compiles a
    builder into an immutable CSR snapshot (int-array [out_off]/[out_eid]
    plus the transposed in-CSR) whose arrays are never mutated and are
    therefore safe to share across domains. {!view} then wraps a frozen
    base with a private [Bytes] bitset of removed edge ids — O(E/8) to
    create, O(1) to toggle, O(E/8) to {!copy} — giving each serving
    session structural sharing of the base instead of a deep copy.
    Adjacency order in a frozen snapshot is edge-id (= insertion) order,
    so traversals over a view visit edges in exactly the order the
    builder would: solver outputs are bit-identical across
    representations.

    Mutators that change graph {e structure} ([add_vertex], [add_edge])
    raise [Invalid_argument] on views; [remove_edge]/[restore_edge] work
    on both layers.

    Parallel edges and self-loops are rejected; all the workflows of the
    paper are simple DAGs. *)

type t

type edge = private { id : int; src : int; dst : int }
(** Immutable edge descriptor, shared between a builder, the snapshots
    frozen from it, and every view of those snapshots. Its fields are
    readable so that the flat kernels ({!csr}) read an edge's head
    without a call; {!edge_id}, {!edge_src} and {!edge_dst} read the
    same. *)

val edge_id : edge -> int
val edge_src : edge -> int
val edge_dst : edge -> int

val edge_removed : t -> edge -> bool
(** Whether [e] is removed {e in this graph}. Removal state lives in the
    graph's mask, not the edge descriptor, so the same descriptor can be
    live in one view and removed in another. *)

val create : unit -> t
(** Fresh empty builder. *)

val add_vertex : t -> int
(** Fresh vertex id. Raises [Invalid_argument] on views. *)

val add_vertices : t -> int -> int
(** Test-only: builds the small graphs of the graph tests.

    [add_vertices g k] adds [k] vertices and returns the id of the first. *)

val n_vertices : t -> int

val add_edge : t -> int -> int -> edge
(** [add_edge g u v] adds the edge [u -> v]. Raises [Invalid_argument] on
    self-loops, unknown vertices, views, or when a live [u -> v] edge
    exists. If a *removed* [u -> v] edge exists it is restored and
    returned, so ids remain unique per vertex pair. Duplicate detection
    is O(1) via a [(src, dst)] hash index. *)

val find_edge : t -> int -> int -> edge option
(** Live edge from [u] to [v], if any. *)

val edge : t -> int -> edge
(** Edge by id (live or removed). *)

val remove_edge : t -> edge -> unit
(** Idempotent soft removal; O(1). *)

val restore_edge : t -> edge -> unit

val n_edges_total : t -> int
(** Number of edge ids ever allocated (live + removed). *)

val n_edges : t -> int
(** Number of live edges; O(1). *)

val out_edges : t -> int -> edge list
(** Test-only: the builder-vs-view differential compares adjacency lists.

    Live out-edges of a vertex, in insertion order. Allocates a list;
    prefer {!iter_out} in hot paths. *)

val in_edges : t -> int -> edge list
(** Test-only: the builder-vs-view differential compares adjacency lists. *)

val out_degree : t -> int -> int

val in_degree : t -> int -> int

val iter_out : t -> int -> (edge -> unit) -> unit
(** [iter_out g v f] applies [f] to each live out-edge of [v] in
    insertion order without allocating. Liveness is checked as each edge
    is visited, so [f] may remove the edge it is handed (the cascade
    pattern) without disturbing the traversal. *)

val iter_in : t -> int -> (edge -> unit) -> unit

val fold_in : t -> int -> ('acc -> edge -> 'acc) -> 'acc -> 'acc

val iter_edges : (edge -> unit) -> t -> unit
(** Iterate live edges in id order. *)

val fold_edges : ('acc -> edge -> 'acc) -> 'acc -> t -> 'acc

val iter_vertices : (int -> unit) -> t -> unit

val copy : t -> t
(** Copy with preserved edge ids. On a builder this is a deep rebuild;
    on a view it shares the frozen base and copies only the O(E/8)
    removal mask. *)

val removed_edge_ids : t -> int list
(** Ids of removed edges, ascending. *)

val removed_beyond : base:t -> t -> int list option
(** [removed_beyond ~base g]: the ids removed in [g] but live in
    [base], ascending — the cuts of a view relative to the base it was
    copied from. [None] when [g] has live an edge that [base] removed,
    which cut ids cannot name. Compares the two removal masks byte by
    byte, so an unmodified [g] costs O(E/8) and allocates nothing.
    Raises [Invalid_argument] when the edge counts differ. *)

(** {1 Frozen snapshots and views} *)

(** Immutable CSR snapshot of a graph. All arrays are written once at
    freeze time and never mutated, so a [Frozen.t] may be shared freely
    across domains. *)
module Frozen : sig
  type t

  val n_vertices : t -> int
  val n_edges_total : t -> int

  val n_edges : t -> int
  (** Live edges at freeze time. *)

  val epoch : t -> int
  (** Position of this base in its evolution chain: 0 for a first
      freeze, bumped by each live re-freeze (base-graph epochs). *)
end

val freeze : ?epoch:int -> t -> Frozen.t
(** Compile the graph's current state (structure and removal mask) into
    an immutable snapshot. Freezing a view is O(E/8): the CSR arrays are
    reused and only the mask is re-based; a view whose mask still equals
    its base's (at the same epoch) returns that base itself. Also
    records a topological order of the freeze-time live graph (when
    acyclic) that views reuse.
    [epoch] stamps the snapshot's position in its evolution chain
    (default: the view's current epoch, or 0 for a builder). *)

val view : Frozen.t -> t
(** A fresh view of [f] with a private removal mask initialised from the
    snapshot's freeze-time mask. O(E/8). *)

val thaw : t -> t
(** Materialise a mutable builder with the same vertices, edge ids, and
    removal mask; the inverse boundary of {!freeze}, for callers that
    must grow a served graph. *)

val is_view : t -> bool

val repr_name : t -> string
(** ["builder"] or ["view"]; used to tag trace spans. *)

val frozen_base : t -> Frozen.t option
(** The shared snapshot under a view; [None] for builders. *)

val topo_hint : t -> int array option
(** The topological order recorded at freeze time, when it is still
    valid for this graph's live edge set: removing edges never
    invalidates a topological order, so the hint holds for any view that
    has not restored an edge its base had removed. [None] for builders,
    cyclic bases, or views that restored below the base. Callers must
    not mutate the returned array. *)

val pristine_base : t -> Frozen.t option
(** The frozen base under a view whose removal mask still equals the
    base's freeze-time mask, i.e. a view with exactly its base's live
    edges; [None] for builders and for views that removed or restored
    an edge. What the base knows about its own edge set (see
    {!Cdw_core.Workflow.base_memo}) holds for such a view. O(E/8). *)

(** {1 Flat arrays for numeric kernels}

    The valuation and path-mass sweeps run as loops over int arrays
    instead of closures over edge descriptors. *)

type csr = private {
  n : int;  (** vertices *)
  out_off : int array;
      (** vertex [v]'s out-edge ids are [out_eid.(out_off.(v))] up to
          [out_eid.(out_off.(v + 1) - 1)], in insertion order, removed
          ones included *)
  out_eid : int array;
  in_off : int array;  (** the in-edges, laid out as the out-edges *)
  in_eid : int array;
  edges : edge array;  (** the descriptors, by edge id *)
  mask : Bytes.t;
      (** the removal mask: edge [id] is removed iff bit [id land 7] of
          byte [id lsr 3] is set *)
}

val csr : t -> csr
(** The graph as flat arrays, rows in the order {!iter_out} and
    {!iter_in} visit them. On a view these are the frozen base's own
    arrays and the view's own mask, uncopied: O(1), and the caller must
    not mutate them. On a builder they are compiled afresh, O(V + E):
    only one-shot paths should sweep builders. *)

