module Bitset = Cdw_util.Bitset

(* BFS over live edges without allocating per-vertex successor lists:
   [step] pushes each neighbour of [v] through the callback. *)
let bfs g start ~step =
  let seen = Array.make (Digraph.n_vertices g) false in
  let queue = Queue.create () in
  seen.(start) <- true;
  Queue.add start queue;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    step v (fun u ->
        if not seen.(u) then begin
          seen.(u) <- true;
          Queue.add u queue
        end)
  done;
  seen

let from_source g s =
  bfs g s ~step:(fun v visit ->
      Digraph.iter_out g v (fun e -> visit (Digraph.edge_dst e)))

let to_target g t =
  bfs g t ~step:(fun v visit ->
      Digraph.iter_in g v (fun e -> visit (Digraph.edge_src e)))

(* BFS from [s] that stops as soon as [t] is discovered. *)
let exists_path g s t =
  if s = t then invalid_arg "Reach.exists_path: s = t";
  let n = Digraph.n_vertices g in
  let seen = Array.make n false in
  let queue = Array.make n 0 in
  let head = ref 0 and tail = ref 1 in
  seen.(s) <- true;
  queue.(0) <- s;
  let visit e =
    let u = Digraph.edge_dst e in
    if not seen.(u) then begin
      seen.(u) <- true;
      queue.(!tail) <- u;
      incr tail
    end
  in
  while !head < !tail && not seen.(t) do
    let v = queue.(!head) in
    incr head;
    Digraph.iter_out g v visit
  done;
  seen.(t)

let target_bitsets g ~targets =
  let n = Digraph.n_vertices g in
  let k = Array.length targets in
  let sets = Array.init n (fun _ -> Bitset.create k) in
  Array.iteri (fun i t -> Bitset.add sets.(t) i) targets;
  let order = Topo.sort g in
  (* Reverse topological order: successors are finalised before their
     predecessors, so one union sweep suffices. *)
  for pos = Array.length order - 1 downto 0 do
    let v = order.(pos) in
    Digraph.iter_out g v (fun e ->
        Bitset.union_into sets.(v) sets.(Digraph.edge_dst e))
  done;
  sets

module Snapshot = struct
  type t = { n : int; desc : Bitset.t array }

  let create g =
    let n = Digraph.n_vertices g in
    let desc =
      Array.init n (fun v ->
          let b = Bitset.create n in
          Bitset.add b v;
          b)
    in
    let order = Topo.sort g in
    (* Reverse topological order: a vertex's successors are finalised
       before the vertex itself, exactly as in [target_bitsets]. *)
    for pos = Array.length order - 1 downto 0 do
      let v = order.(pos) in
      Digraph.iter_out g v (fun e ->
          Bitset.union_into desc.(v) desc.(Digraph.edge_dst e))
    done;
    { n; desc }

  let n_vertices t = t.n
  let reaches t u v = Bitset.mem t.desc.(u) v
end

let reachability_subgraph_edges g t =
  let reaches = to_target g t in
  List.rev
    (Digraph.fold_edges
       (fun acc e -> if reaches.(Digraph.edge_dst e) then e :: acc else acc)
       [] g)
