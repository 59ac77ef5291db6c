(** System utility (Eq. 1/14) and the cut weights used by the
    optimisation algorithms.

    The utility of a purpose is the valuation mass arriving on its
    in-edges; the system utility is the purpose-weighted sum. Cut
    weights implement [w(e) = π(e) · Σ_{p ∈ r(e)} w_p] from Algorithms
    3/4, where [r(e)] is the set of purposes reachable from the edge's
    head (see DESIGN.md §2 for why the head, not the tail). *)

val per_purpose : ?model:Valuation.model -> Workflow.t -> (int * float) list
(** [(purpose vertex, u_p)] for every purpose, in vertex order. *)

val total : ?model:Valuation.model -> Workflow.t -> float
(** [U(G) = Σ_p w_p · u_p(G_p)]. *)

val percent : original:float -> float -> float
(** Utility as a percentage of [original] (100.0 when original is 0). *)

val purpose_mass : Workflow.t -> float array
(** Test-only: pins Eq. 13 per purpose in the utility tests.

    Per vertex [v]: [Σ_{p ∈ r(v)} w_p] with [r(v)] the set of purposes
    reachable from [v] (a purpose reaches itself). *)

val path_mass : Workflow.t -> float array
(** Test-only: pins Eq. 14 per path in the utility tests.

    Per vertex [v]: [Σ_p w_p · #paths(v → p)] — the purpose-weighted
    number of distinct paths from [v] to each purpose. In the linear
    model, [π(e) · path_mass(head e)] is the *exact* utility loss of
    removing edge [e] alone, because every surviving path contributes
    its source valuation once (cf. Thm 6.1). One flat reverse
    topological sweep over the CSR arrays, summing each vertex's live
    out-edges in adjacency order, like {!Valuation.compute}. *)

type weight_scheme =
  | Reachability_mass
      (** the paper's literal [w(e) = π(e)·Σ_{p ∈ r(e)} w_p]; counts each
          reachable purpose once, underestimating the loss of high
          fan-out edges *)
  | Path_count_mass
      (** [w(e) = π(e)·path_mass(head e)], the exact single-edge marginal
          loss (the default in Algorithms 3/4; see DESIGN.md §2) *)

val cut_weights :
  ?model:Valuation.model -> ?scheme:weight_scheme -> Workflow.t -> float array
(** Test-only: [?model] (default linear) lets the frozen-view tests check
    that a [Subadditive] model bypasses the base memo.

    Per edge id over the live graph (removed edges weigh 0); [scheme]
    defaults to [Path_count_mass].

    In the linear model the weights of an unmodified frozen base are
    computed once per base and scheme: when the workflow's removal mask
    equals its frozen base's, the answer is the base's memoized array
    ({!Workflow.base_memo}), filled by the first such call and shared
    by every copy, session, domain and shard of that base — one sweep
    per epoch, not per solve. Any other workflow, and the [Subadditive]
    model, gets a fresh array. Either way the values are bit-identical
    to a fresh sweep.

    The result is read-only: it may be the array every other solve of
    the epoch reads. Copy it before writing to it. *)
