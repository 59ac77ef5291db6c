module Digraph = Cdw_graph.Digraph
module Topo = Cdw_graph.Topo

type model = Linear_additive | Subadditive of float

let live mask id =
  Char.code (Bytes.unsafe_get mask (id lsr 3)) land (1 lsl (id land 7)) = 0

(* One flat sweep in topological order: a user vertex hands each live
   out-edge its initial value; any other vertex hands every live
   out-edge the (capped) sum over its live in-edges. *)
let compute ?(model = Linear_additive) wf =
  let g = Workflow.graph wf in
  let c = Digraph.csr g in
  let { Workflow.vertex_kinds; edge_values; _ } = Workflow.flat wf in
  let pi = Array.make (max 1 (Digraph.n_edges_total g)) 0.0 in
  (* Any topological order gives the same values, bit for bit: each
     sum runs over a vertex's in-edges in adjacency order. *)
  let order = Topo.sort g in
  for k = 0 to Array.length order - 1 do
    let v = order.(k) in
    match vertex_kinds.(v) with
    | Workflow.User ->
        for s = c.out_off.(v) to c.out_off.(v + 1) - 1 do
          let id = c.out_eid.(s) in
          if live c.mask id then pi.(id) <- edge_values.(id)
        done
    | Workflow.Algorithm | Workflow.Purpose ->
        let sum = ref 0.0 in
        for s = c.in_off.(v) to c.in_off.(v + 1) - 1 do
          let id = c.in_eid.(s) in
          if live c.mask id then sum := !sum +. pi.(id)
        done;
        let x =
          match model with
          | Linear_additive -> !sum
          | Subadditive cap -> Float.min cap !sum
        in
        for s = c.out_off.(v) to c.out_off.(v + 1) - 1 do
          let id = c.out_eid.(s) in
          if live c.mask id then pi.(id) <- x
        done
  done;
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
