module Digraph = Cdw_graph.Digraph
module Reach = Cdw_graph.Reach
module Timing = Cdw_util.Timing
module Trace = Cdw_obs.Trace
module Simplex = Cdw_lp.Simplex
module Vec = Cdw_util.Vec

type backend = Ilp | Bnb | Greedy | Lp_rounding

type result = {
  edges : Digraph.edge list;
  weight : float;
  exact : bool;
  rounds : int;
  lower_bound : float;
  violated : int list;
  ratio : float;
  fell_back : bool;
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

let is_multicut g edges ~pairs =
  with_removed g edges (fun () ->
      List.for_all (fun (s, t) -> not (Reach.exists_path g s t)) pairs)

(* One surviving s→t path (as an edge list) by BFS, or None. The
   parent of each reached vertex is the id of the edge that reached it
   (-1 for none); the queue is an array, as each vertex enters once.
   One scratch serves a whole run: a vertex is seen when its stamp is
   the current search's. *)
type bfs = {
  parent : int array;
  seen : int array;
  queue : int array;
  mutable stamp : int;
}

let bfs_scratch g =
  let n = Digraph.n_vertices g in
  {
    parent = Array.make n (-1);
    seen = Array.make n 0;
    queue = Array.make n 0;
    stamp = 0;
  }

let find_path bfs g s t =
  bfs.stamp <- bfs.stamp + 1;
  let stamp = bfs.stamp and parent = bfs.parent and seen = bfs.seen
  and queue = bfs.queue in
  let head = ref 0 and tail = ref 1 in
  seen.(s) <- stamp;
  parent.(s) <- -1;
  queue.(0) <- s;
  let visit e =
    let u = Digraph.edge_dst e in
    if seen.(u) <> stamp then begin
      seen.(u) <- stamp;
      parent.(u) <- Digraph.edge_id e;
      queue.(!tail) <- u;
      incr tail
    end
  in
  while !head < !tail && seen.(t) <> stamp do
    let v = queue.(!head) in
    incr head;
    Digraph.iter_out g v visit
  done;
  if seen.(t) <> stamp then None
  else begin
    let rec walk v acc =
      if parent.(v) < 0 then acc
      else
        let e = Digraph.edge g parent.(v) in
        walk (Digraph.edge_src e) (e :: acc)
    in
    Some (walk t [])
  end

(* Variable pool: dense indices for the edge ids mentioned by discovered
   paths — the program never materialises a column for an edge no path
   uses. Each variable's weight is read once, when it is created. *)
type pool = {
  var_of_edge : (int, int) Hashtbl.t;
  edge_of_var : Digraph.edge Vec.t;
  program : Hitting_set.pool;
  mutable n_sets : int;
  mutable max_len : int; (* longest pooled path, ≥ 1 *)
}

let fresh_pool () =
  {
    var_of_edge = Hashtbl.create 64;
    edge_of_var = Vec.create ();
    program = Hitting_set.create_pool ();
    n_sets = 0;
    max_len = 1;
  }

let var_for pool ~weight e =
  let id = Digraph.edge_id e in
  match Hashtbl.find_opt pool.var_of_edge id with
  | Some v -> v
  | None ->
      let v = Vec.length pool.edge_of_var in
      Hashtbl.add pool.var_of_edge id v;
      Vec.push pool.edge_of_var e;
      Hitting_set.add_elem pool.program (weight e);
      v

let add_path pool ~weight path =
  let set = Array.of_list (List.map (var_for pool ~weight) path) in
  Hitting_set.add_set pool.program set;
  pool.n_sets <- pool.n_sets + 1;
  pool.max_len <- max pool.max_len (Array.length set)

let chosen_edges pool chosen =
  let acc = ref [] in
  for v = Array.length chosen - 1 downto 0 do
    if chosen.(v) then acc := Vec.get pool.edge_of_var v :: !acc
  done;
  !acc

(* LP relaxation + threshold rounding: every pool path has ≤ L edges, so
   some variable on it is ≥ 1/L; keeping all x ≥ 1/L hits every pool
   path and costs ≤ L · OPT_LP. Also returns OPT_LP, a lower bound on
   the pool optimum and hence on the true one. *)
let lp_round ~deadline ~max_len problem =
  let constraints =
    Array.to_list
      (Array.map
         (fun s ->
           let a = Array.make problem.Hitting_set.n_elems 0.0 in
           Array.iter (fun e -> a.(e) <- 1.0) s;
           (a, Simplex.Ge, 1.0))
         problem.Hitting_set.sets)
  in
  let lp =
    { Simplex.objective = Array.copy problem.Hitting_set.weights; constraints }
  in
  match Simplex.solve ~deadline lp with
  | Simplex.Optimal { x; objective_value } ->
      let threshold = (1.0 /. float_of_int max_len) -. 1e-9 in
      (Array.map (fun xe -> xe >= threshold) x, objective_value)
  | Simplex.Infeasible | Simplex.Unbounded ->
      (* Covering LPs with non-empty sets are always feasible/bounded. *)
      assert false

let minimalize g edges ~weight ~pairs =
  let ordered =
    List.sort (fun a b -> compare (weight b) (weight a)) edges
  in
  (* Remove the whole cut, then re-admit edges most-expensive-first
     whenever re-admission keeps every pair disconnected. *)
  List.iter (fun e -> Digraph.remove_edge g e) ordered;
  let disconnected () =
    List.for_all (fun (s, t) -> not (Reach.exists_path g s t)) pairs
  in
  let kept =
    List.filter
      (fun e ->
        Digraph.restore_edge g e;
        if disconnected () then false
        else begin
          Digraph.remove_edge g e;
          true
        end)
      ordered
  in
  List.iter (fun e -> Digraph.restore_edge g e) kept;
  kept

(* H(n) = 1 + 1/2 + … + 1/n, clamped at H(1): Chvátal's greedy ratio
   when no element hits more than n sets. *)
let harmonic n =
  let h = ref 1.0 in
  for i = 2 to n do
    h := !h +. (1.0 /. float_of_int i)
  done;
  !h

(* One run of the lazy loop under [deadline], without a budget. *)
let run ~backend ~deadline g ~weight ~pairs =
  List.iter
    (fun (s, t) ->
      if s = t then invalid_arg "Multicut.solve: pair with s = t")
    pairs;
  (* Normalise weights for the solvers: valuation-derived weights can
     span 12+ orders of magnitude, which wrecks simplex tolerances.
     Scaling the objective does not change the argmin. *)
  let max_weight = ref 0.0 in
  Digraph.iter_edges (fun e -> max_weight := Float.max !max_weight (weight e)) g;
  let scale = if !max_weight > 0.0 then 1.0 /. !max_weight else 1.0 in
  let scaled_weight e = weight e *. scale in
  let pool = fresh_pool () in
  (* The last pool LP optimum ([Lp_rounding] only), scaled. *)
  let lp_value = ref 0.0 in
  let backend_name = function
    | Ilp -> "ilp"
    | Bnb -> "bnb"
    | Greedy -> "greedy"
    | Lp_rounding -> "lp-rounding"
  in
  let solve_pool () =
    let args =
      if Trace.enabled () then
        [
          ("backend", backend_name backend);
          ("paths", string_of_int pool.n_sets);
        ]
      else []
    in
    Trace.span "multicut.hitting_set" ~args (fun () ->
        let problem () = Hitting_set.pool_problem pool.program in
        let chosen =
          match backend with
          | Ilp -> Hitting_set.solve_pool_ilp ~deadline pool.program
          | Bnb -> Hitting_set.solve_bnb ~deadline (problem ())
          | Greedy -> Hitting_set.solve_greedy (problem ())
          | Lp_rounding ->
              let chosen, value =
                lp_round ~deadline ~max_len:pool.max_len (problem ())
              in
              lp_value := value;
              chosen
        in
        chosen_edges pool chosen)
  in
  let finish rounds violated candidate =
    (* The approximate backends can leave redundant edges in the cut;
       dropping them only lowers the weight. *)
    let candidate =
      match backend with
      | Ilp | Bnb -> candidate
      | Greedy | Lp_rounding ->
          Trace.span "multicut.minimalize" (fun () ->
              minimalize g candidate ~weight ~pairs)
    in
    let weight_total =
      List.fold_left (fun acc e -> acc +. weight e) 0.0 candidate
    in
    (* The final cut hits every path while the pool is a relaxation of
       the full path set, so each backend's pool guarantee holds against
       the true optimum: exact, L-approximate (LP threshold rounding),
       or H(pooled paths)-approximate (greedy). *)
    let ratio =
      match backend with
      | Ilp | Bnb -> 1.0
      | Lp_rounding -> float_of_int pool.max_len
      | Greedy -> harmonic pool.n_sets
    in
    let lower_bound =
      match backend with
      | Lp_rounding -> !lp_value /. scale
      | Ilp | Bnb | Greedy -> weight_total /. ratio
    in
    {
      edges = candidate;
      weight = weight_total;
      exact = (match backend with Ilp | Bnb -> true | _ -> false);
      rounds;
      lower_bound;
      violated = List.rev violated;
      ratio;
      fell_back = false;
    }
  in
  let bfs = bfs_scratch g in
  let rec loop rounds violated candidate =
    Timing.check_deadline deadline;
    let paths =
      Trace.span "multicut.find_paths" (fun () ->
          with_removed g candidate (fun () ->
              List.filter_map (fun (s, t) -> find_path bfs g s t) pairs))
    in
    let violated = List.length paths :: violated in
    match paths with
    | [] -> finish rounds violated candidate
    | paths ->
        List.iter (add_path pool ~weight:scaled_weight) paths;
        loop (rounds + 1) violated (solve_pool ())
  in
  loop 0 [] []

(* The budget is decided before any set-up: the budgeted solve is one
   run under the tighter deadline, and at most one greedy run after
   it. *)
let solve ?(backend = Ilp) ?budget_ms ?(deadline = infinity) g ~weight ~pairs =
  match budget_ms with
  | None -> run ~backend ~deadline g ~weight ~pairs
  | Some budget_ms -> (
      let budget_deadline =
        Float.min deadline (Timing.deadline_after_ms budget_ms)
      in
      try run ~backend ~deadline:budget_deadline g ~weight ~pairs
      with
      | (Timing.Timeout | Failure _)
        when deadline = infinity || Timing.now_ms () < deadline
        ->
          (* Budget exhausted (or the simplex got numerically stuck):
             fall back to the greedy approximation under the caller's
             own deadline. *)
          Timing.check_deadline deadline;
          { (run ~backend:Greedy ~deadline g ~weight ~pairs) with
            fell_back = true })
