module Digraph = Cdw_graph.Digraph
module Reach = Cdw_graph.Reach
module Bitset = Cdw_util.Bitset

type t = Workflow.t -> float

(* U(G) = Σ_p w_p Σ_{e ∈ E_p} π(e) with π(e) = w(e)/|r(head e)| over the
   *original* graph's reachability? No — the construction defines π once
   from the instance being reduced; but removals change |r|. Lemma 3.1
   evaluates candidate subgraphs of the fixed instance, where π keeps
   its original definition and only the reachability subgraphs shrink.
   We therefore compute π from the weights on the *current live* head
   reachability of the original graph at evaluator-construction time. *)
let reduction ~edge_weight =
  let cache = ref None in
  fun wf ->
    let g = Workflow.graph wf in
    let purposes = Array.of_list (Workflow.purposes wf) in
    let pi =
      (* π is fixed by the original instance: compute it on first use
         (before any removal) and reuse it for every candidate. *)
      match !cache with
      | Some pi -> pi
      | None ->
          let sets = Reach.target_bitsets g ~targets:purposes in
          let pi = Array.make (max 1 (Digraph.n_edges_total g)) 0.0 in
          Digraph.iter_edges
            (fun e ->
              let reachable = Bitset.cardinal sets.(Digraph.edge_dst e) in
              if reachable > 0 then
                pi.(Digraph.edge_id e) <-
                  edge_weight e /. float_of_int reachable)
            g;
          cache := Some pi;
          pi
    in
    Array.fold_left
      (fun acc p ->
        let u =
          List.fold_left
            (fun acc e -> acc +. pi.(Digraph.edge_id e))
            0.0
            (Reach.reachability_subgraph_edges g p)
        in
        acc +. (Workflow.purpose_weight wf p *. u))
      0.0 purposes
