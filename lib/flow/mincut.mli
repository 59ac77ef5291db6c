(** Minimum s–t cut (Eq. 15 of the paper), via max-flow duality.

    The MINCUT oracle used by the paper's RemoveMinCuts algorithm:
    minimise the total weight of removed edges so that no directed s→t
    path remains. *)

type result = {
  value : float;
      (** Test-only: the flow tests check max-flow/min-cut duality.

          Total capacity of the cut = max-flow value. *)
  edges : Cdw_graph.Digraph.edge list;  (** original edges crossing the cut *)
}

val compute :
  Cdw_graph.Digraph.t ->
  capacity:(Cdw_graph.Digraph.edge -> float) ->
  src:int ->
  dst:int ->
  result
(** Runs Dinic, then collects the edges leaving the source side of the
    residual graph. Removing [edges] from the digraph disconnects [src]
    from [dst]; the tests assert both directions of the duality. *)
