(** The §3 NP-hardness construction as a utility model.

    The general CDW problem (§2) lets every purpose carry an arbitrary
    black-box utility over its reachability subgraph, which
    {!Algorithms.brute_force} honours through its [utility] parameter.
    {!reduction} is the model Lemma 3.1 builds: fixed per-edge
    valuations [π(e) = w(e) / |r(head e)|] summed over entire
    reachability subgraphs, so that [U(G) = Σ_e w(e)] (Eq. 4). With
    this model, solving CDW by exhaustive search *is* solving minimum
    multicut (see [test_reduction.ml]). *)

type t = Workflow.t -> float
(** A system-utility evaluator over the live graph. *)

val reduction : edge_weight:(Cdw_graph.Digraph.edge -> float) -> t
(** Test-only: Lemma 3.1 run as code, the oracle that ties exhaustive
    CDW search to minimum multicut.

    The §3 construction for the given MINMC edge weights. The weight
    function is consulted for live edges only; reachability sets are
    recomputed per call, reflecting removals. *)
