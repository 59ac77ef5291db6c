(** Structural diff between two bases of one evolving workflow
    (base-graph epochs, DESIGN.md §16).

    Vertex and edge ids shift across a thaw → mutate → re-freeze cycle,
    so the diff is computed in {e name space}: a vertex's identity is
    its (name, kind) pair and an edge's identity the (src-name,
    dst-name) pair — the same representation-independent identities
    snapshot format 2.0 uses for portable session state. The diff is
    the record of what an epoch changed ([Cdw_engine.Engine.migrate]
    reports it); migration itself re-solves every session, remapping
    constraint endpoints with {!counterpart}. *)

type t = {
  added_vertices : string list;
  removed_vertices : string list;
      (** names only in the old base — including names whose kind
          changed, which count as removed-and-added *)
  added_edges : (string * string) list;
  removed_edges : (string * string) list;
  repriced_edges : (string * string) list;
      (** present in both bases with a different initial valuation *)
  reweighted_purposes : string list;
      (** purposes present in both bases with a different weight *)
}

val is_empty : t -> bool
(** Test-only: the diff tests assert a self-diff is empty.

    True iff the two bases are structurally identical (same vertices,
    edges, valuations and weights, by name). *)

val counterpart : of_:Workflow.t -> Workflow.t -> int -> int option
(** [counterpart ~of_:wf other v] is the vertex of [wf] that is the
    {e same entity} as vertex [v] of [other]: same name, same kind.
    [None] when the name is absent from [wf] or changed kind — the
    id-remapping primitive migration uses for constraint endpoints. *)

val compute : old_base:Workflow.t -> new_base:Workflow.t -> t
(** Both workflows may be builder- or view-backed; only names, kinds,
    live edges, initial valuations and purpose weights are compared. *)
