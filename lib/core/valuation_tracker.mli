(** Incrementally maintained valuations and utility.

    The exhaustive searches evaluate thousands of candidate multicuts;
    recomputing Eq. 13 from scratch per candidate costs O(E) each (the
    paper's Algorithm 5 does exactly that, copying the graph per
    candidate). A tracker instead maintains π and U under edge
    removal/restore, touching only the affected downstream region.
    Removing an edge marks its head dirty; dirty vertices are processed
    in (static) topological order, propagating only actual changes, and
    the utility accumulator absorbs per-purpose-in-edge deltas.

    A property test checks the tracker against {!Valuation.compute} +
    {!Utility.total} after arbitrary remove/undo sequences. *)

type t

type undo
(** Token reverting one {!remove} (single use, LIFO order). *)

val create : Workflow.t -> t
(** Snapshot of the workflow's current live graph. The tracker assumes
    it is the only mutator of the graph's edge liveness from then on. *)

val utility : t -> float
(** Current [U(G)] (Eq. 1 over the linear model). *)

val remove : t -> Cdw_graph.Digraph.edge list -> undo
(** Remove the edges (with the dependency cascade of
    {!Valuation.remove_with_cascade}) and update π/U. *)

val undo : t -> undo -> unit
(** Revert the corresponding {!remove}. Tokens must be undone in
    reverse order of creation; misuse raises [Invalid_argument]. *)

val removed_of_undo : undo -> Cdw_graph.Digraph.edge list
(** Test-only: lets the cascade test count what a removal took.

    The edges (cascade included) the corresponding {!remove} took out. *)
