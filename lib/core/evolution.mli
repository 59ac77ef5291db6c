(** Vertex identity across the bases of one evolving workflow
    (base-graph epochs, DESIGN.md §16).

    Vertex ids shift across a thaw → mutate → re-freeze cycle, so a
    vertex's identity across epochs is its (name, kind) pair — the same
    representation-independent identity snapshot format 2.0 uses for
    portable session state. Migration ([Cdw_engine.Engine.migrate])
    remaps every constraint endpoint with {!counterpart} and re-solves;
    no structural diff of two bases is computed. *)

val counterpart : of_:Workflow.t -> Workflow.t -> int -> int option
(** [counterpart ~of_:wf other v] is the vertex of [wf] that is the
    {e same entity} as vertex [v] of [other]: same name, same kind.
    [None] when the name is absent from [wf] or changed kind — the
    id-remapping primitive migration uses for constraint endpoints.
    Both workflows may be builder- or view-backed. *)
