(** Enumeration and counting of directed s→t paths.

    [getAllEdgePaths] in the paper's pseudo-code. Enumeration is
    exponential in the worst case, so it takes an optional cap and a
    cooperative deadline; the brute-force search and the dense-graph
    experiments rely on both. *)

exception Too_many_paths of int
(** Raised by [all_paths] when more than [max_paths] paths exist. *)

val all_paths :
  ?max_paths:int ->
  ?deadline:float ->
  Digraph.t ->
  src:int ->
  dst:int ->
  Digraph.edge list list
(** Every directed path from [src] to [dst] as an edge sequence, in DFS
    order. Only vertices that still reach [dst] are explored, so on DAGs
    the cost is output-sensitive. [max_paths] defaults to 1_000_000.
    May raise [Too_many_paths] or [Cdw_util.Timing.Timeout]. *)
