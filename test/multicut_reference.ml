(* A frozen copy of [Multicut.solve]'s lazy loop for the [Ilp] backend
   as it stood before the loop carried one dual-simplex state across
   its rounds: every round rebuilds the pool program, reads every
   pooled weight again and solves it cold with [Hitting_set.solve_ilp],
   and every BFS allocates its own arrays. The differential tests in
   [test_multicut.ml] hold the warm loop to it result for result. Do
   not optimise this copy. *)

module Digraph = Cdw_graph.Digraph
module Hitting_set = Cdw_cut.Hitting_set

type result = {
  edges : Digraph.edge list;
  rounds : int;
  violated : int list;
}

let with_removed g edges f =
  List.iter (fun e -> Digraph.remove_edge g e) edges;
  let finish () = List.iter (fun e -> Digraph.restore_edge g e) edges in
  match f () with
  | x ->
      finish ();
      x
  | exception exn ->
      finish ();
      raise exn

let find_path g s t =
  let n = Digraph.n_vertices g in
  let parent = Array.make n (-1) in
  let seen = Array.make n false in
  let queue = Array.make n 0 in
  let head = ref 0 and tail = ref 1 in
  seen.(s) <- true;
  queue.(0) <- s;
  let visit e =
    let u = Digraph.edge_dst e in
    if not seen.(u) then begin
      seen.(u) <- true;
      parent.(u) <- Digraph.edge_id e;
      queue.(!tail) <- u;
      incr tail
    end
  in
  while !head < !tail && not seen.(t) do
    let v = queue.(!head) in
    incr head;
    Digraph.iter_out g v visit
  done;
  if not seen.(t) then None
  else begin
    let rec walk v acc =
      if parent.(v) < 0 then acc
      else
        let e = Digraph.edge g parent.(v) in
        walk (Digraph.edge_src e) (e :: acc)
    in
    Some (walk t [])
  end

type pool = {
  mutable var_of_edge : (int, int) Hashtbl.t;
  mutable edge_of_var : Digraph.edge list; (* reversed *)
  mutable n_vars : int;
  mutable sets : int array list; (* reversed *)
}

let var_for pool e =
  let id = Digraph.edge_id e in
  match Hashtbl.find_opt pool.var_of_edge id with
  | Some v -> v
  | None ->
      let v = pool.n_vars in
      Hashtbl.add pool.var_of_edge id v;
      pool.edge_of_var <- e :: pool.edge_of_var;
      pool.n_vars <- v + 1;
      v

let add_path pool path =
  let set = Array.of_list (List.map (var_for pool) path) in
  pool.sets <- set :: pool.sets

let pool_problem pool ~weight =
  let edges = Array.of_list (List.rev pool.edge_of_var) in
  let weights = Array.map weight edges in
  {
    Hitting_set.n_elems = pool.n_vars;
    weights;
    sets = Array.of_list (List.rev pool.sets);
  }

let chosen_edges pool chosen =
  let edges = Array.of_list (List.rev pool.edge_of_var) in
  let acc = ref [] in
  Array.iteri (fun v b -> if b then acc := edges.(v) :: !acc) chosen;
  List.rev !acc

let solve g ~weight ~pairs =
  List.iter
    (fun (s, t) ->
      if s = t then invalid_arg "Multicut.solve: pair with s = t")
    pairs;
  let max_weight = ref 0.0 in
  Digraph.iter_edges (fun e -> max_weight := Float.max !max_weight (weight e)) g;
  let scale = if !max_weight > 0.0 then 1.0 /. !max_weight else 1.0 in
  let scaled_weight e = weight e *. scale in
  let pool =
    { var_of_edge = Hashtbl.create 64; edge_of_var = []; n_vars = 0; sets = [] }
  in
  let rec loop rounds violated candidate =
    let paths =
      with_removed g candidate (fun () ->
          List.filter_map (fun (s, t) -> find_path g s t) pairs)
    in
    let violated = List.length paths :: violated in
    match paths with
    | [] -> { edges = candidate; rounds; violated = List.rev violated }
    | paths ->
        List.iter (add_path pool) paths;
        let problem = pool_problem pool ~weight:scaled_weight in
        loop (rounds + 1) violated
          (chosen_edges pool (Hitting_set.solve_ilp problem))
  in
  loop 0 [] []
