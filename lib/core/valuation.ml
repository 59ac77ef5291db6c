module Digraph = Cdw_graph.Digraph
module Topo = Cdw_graph.Topo

type model = Linear_additive | Subadditive of float

let combine model incoming =
  match model with
  | Linear_additive -> incoming
  | Subadditive cap -> Float.min cap incoming

let compute ?(model = Linear_additive) wf =
  let g = Workflow.graph wf in
  let pi = Array.make (max 1 (Digraph.n_edges_total g)) 0.0 in
  let order = Topo.sort g in
  Array.iter
    (fun v ->
      let value_out =
        match Workflow.kind wf v with
        | Workflow.User -> None (* per-edge initial values *)
        | Workflow.Algorithm | Workflow.Purpose ->
            let sum =
              Digraph.fold_in g v
                (fun acc e -> acc +. pi.(Digraph.edge_id e))
                0.0
            in
            Some (combine model sum)
      in
      Digraph.iter_out g v (fun e ->
          pi.(Digraph.edge_id e) <-
            (match value_out with
            | Some x -> x
            | None -> Workflow.initial_value wf e)))
    order;
  pi

let cascade wf seeds =
  let g = Workflow.graph wf in
  let removed = ref [] in
  let queue = Queue.create () in
  List.iter (fun v -> Queue.add v queue) seeds;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    if
      Workflow.kind wf v = Workflow.Algorithm
      && Digraph.in_degree g v = 0
    then
      (* [iter_out] checks liveness as each edge is visited, so removing
         the edge in hand does not disturb the traversal. *)
      Digraph.iter_out g v (fun e ->
          Digraph.remove_edge g e;
          removed := e :: !removed;
          Queue.add (Digraph.edge_dst e) queue)
  done;
  List.rev !removed

let remove_with_cascade wf edges =
  let g = Workflow.graph wf in
  let direct =
    List.filter (fun e -> not (Digraph.edge_removed g e)) edges
  in
  List.iter (fun e -> Digraph.remove_edge g e) direct;
  let cascaded = cascade wf (List.map Digraph.edge_dst direct) in
  direct @ cascaded

let restore wf edges =
  let g = Workflow.graph wf in
  List.iter (fun e -> Digraph.restore_edge g e) edges
