exception Cycle of int list

let kahn g =
  let n = Digraph.n_vertices g in
  let indeg = Array.make n 0 in
  Digraph.iter_edges (fun e -> let d = Digraph.edge_dst e in indeg.(d) <- indeg.(d) + 1) g;
  let queue = Queue.create () in
  for v = 0 to n - 1 do if indeg.(v) = 0 then Queue.add v queue done;
  let order = Array.make n (-1) in
  let filled = ref 0 in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    order.(!filled) <- v;
    incr filled;
    Digraph.iter_out g v (fun e ->
        let d = Digraph.edge_dst e in
        indeg.(d) <- indeg.(d) - 1;
        if indeg.(d) = 0 then Queue.add d queue)
  done;
  if !filled < n then begin
    let stuck = ref [] in
    for v = n - 1 downto 0 do if indeg.(v) > 0 then stuck := v :: !stuck done;
    raise (Cycle !stuck)
  end;
  order

let sort g =
  (* Views whose live edges are a subset of their frozen base reuse the
     order computed at freeze time, uncopied: removing edges never
     invalidates a topological order. *)
  match Digraph.topo_hint g with Some order -> order | None -> kahn g

let is_dag g = match sort g with _ -> true | exception Cycle _ -> false

let order_index g =
  let order = sort g in
  let index = Array.make (Array.length order) 0 in
  Array.iteri (fun pos v -> index.(v) <- pos) order;
  index
