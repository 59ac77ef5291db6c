(* The primal kernels against their frozen copy ([Primal_reference]):
   [Simplex.solve] and [Ilp.solve] must return the reference's outcome,
   its [x] bit for bit and its objective, on the covering programs of
   [test_hitting_set]'s [tie_problem] (raw and presolved, as the
   hitting set's decline path hands them to [Ilp]), on general
   [Le]/[Ge]/[Eq] LPs ([lp_round] and [approx-lp] share the primal),
   and on the hitting-set programs of dense 1c's lazy rounds. Both
   count a [Failure] as an outcome. *)

module Simplex = Cdw_lp.Simplex
module Ilp = Cdw_lp.Ilp
module Hs = Cdw_cut.Hitting_set
module Digraph = Cdw_graph.Digraph
module Sm = Cdw_util.Splitmix

let bits = Int64.bits_of_float

let same_floats a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun u v -> bits u = bits v) a b

(* An outcome, or the [Failure] a solver raised. *)
let attempt f = match f () with v -> Ok v | exception Failure m -> Error m

let same_lp a b =
  match (a, b) with
  | Ok (Simplex.Optimal s), Ok (Simplex.Optimal r) ->
      same_floats s.Simplex.x r.Simplex.x
      && bits s.Simplex.objective_value = bits r.Simplex.objective_value
  | Ok Simplex.Infeasible, Ok Simplex.Infeasible
  | Ok Simplex.Unbounded, Ok Simplex.Unbounded ->
      true
  | Error m, Error m' -> m = m'
  | _ -> false

let same_ilp a b =
  match (a, b) with
  | ( Ok (Ilp.Optimal { x; objective_value = v }),
      Ok (Ilp.Optimal { x = x'; objective_value = v' }) ) ->
      x = x' && bits v = bits v'
  | Ok Ilp.Infeasible, Ok Ilp.Infeasible -> true
  | Error m, Error m' -> m = m'
  | _ -> false

let matches_reference lp =
  same_lp
    (attempt (fun () -> Simplex.solve lp))
    (attempt (fun () -> Primal_reference.solve_lp lp))
  && same_ilp
       (attempt (fun () -> Ilp.solve lp))
       (attempt (fun () -> Primal_reference.solve_ilp lp))

(* The covering program [Ilp] gets from the hitting set: a [Ge 1] row
   per set. *)
let covering_lp (p : Hs.problem) =
  {
    Simplex.objective = Array.copy p.Hs.weights;
    constraints =
      Array.to_list
        (Array.map
           (fun s ->
             let a = Array.make p.Hs.n_elems 0.0 in
             Array.iter (fun e -> a.(e) <- 1.0) s;
             (a, Simplex.Ge, 1.0))
           p.Hs.sets);
  }

(* Both the program as given and its presolved reduction. *)
let covering_matches (p : Hs.problem) =
  matches_reference (covering_lp p)
  && matches_reference (covering_lp (Hs.presolve p).Hs.reduced)

(* General LPs: up to 7 variables and 6 rows of every relation, with
   zero, integer, fractional and negative coefficients, right-hand
   sides of either sign (so rows get negated) and objectives that may
   leave the LP unbounded. *)
let general_lp seed =
  let rng = Sm.create seed in
  let n = 1 + Sm.int rng 7 in
  let m = 1 + Sm.int rng 6 in
  let coefficient () =
    match Sm.int rng 4 with
    | 0 -> 0.0
    | 1 -> float_of_int (Sm.int rng 5 - 2)
    | 2 -> Sm.float rng 3.0
    | _ -> -.Sm.float rng 2.0
  in
  let objective =
    Array.init n (fun _ ->
        if Sm.int rng 5 = 0 then -.Sm.float rng 3.0
        else float_of_int (Sm.int rng 10))
  in
  let constraints =
    List.init m (fun _ ->
        let a = Array.init n (fun _ -> coefficient ()) in
        let rel =
          match Sm.int rng 3 with 0 -> Simplex.Le | 1 -> Simplex.Ge | _ -> Simplex.Eq
        in
        let b =
          if Sm.bool rng then float_of_int (Sm.int rng 9 - 3)
          else Sm.float rng 6.0 -. 2.0
        in
        (a, rel, b))
  in
  { Simplex.objective; constraints }

let prop_matches_reference =
  Test_helpers.qcheck ~count:600
    "Simplex.solve and Ilp.solve = the frozen primal (outcome, x bits, objective)"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      if seed mod 2 = 0 then covering_matches (Test_hitting_set.tie_problem seed)
      else matches_reference (general_lp seed))

(* The hitting-set program of every lazy round of the cold reference
   loop on [pairs]. *)
let round_programs g ~weight ~pairs =
  let module R = Multicut_reference in
  let max_weight = ref 0.0 in
  Digraph.iter_edges (fun e -> max_weight := Float.max !max_weight (weight e)) g;
  let scale = if !max_weight > 0.0 then 1.0 /. !max_weight else 1.0 in
  let pool =
    { R.var_of_edge = Hashtbl.create 64; edge_of_var = []; n_vars = 0; sets = [] }
  in
  let rec loop acc candidate =
    match
      R.with_removed g candidate (fun () ->
          List.filter_map (fun (s, t) -> R.find_path g s t) pairs)
    with
    | [] -> List.rev acc
    | paths ->
        List.iter (R.add_path pool) paths;
        let p = R.pool_problem pool ~weight:(fun e -> weight e *. scale) in
        loop (p :: acc) (R.chosen_edges pool (Hs.solve_ilp p))
  in
  loop [] []

(* Dense 1c, `cdw generate --uniform -d 0.2 --seed 7 -n 30`: the round
   programs of its first k constraints, for every k. *)
let dense_1c_programs =
  lazy
    (let inst =
       Cdw_workload.Generator.generate ~seed:7
         (Cdw_workload.Gen_params.dataset1c ~n_constraints:30)
     in
     let wf = inst.Cdw_workload.Generator.workflow in
     let w = Cdw_core.Utility.cut_weights wf in
     let weight e = w.(Digraph.edge_id e) in
     let pairs =
       Cdw_core.Constraint_set.pairs inst.Cdw_workload.Generator.constraints
     in
     List.concat
       (List.init (List.length pairs) (fun k ->
            round_programs (Cdw_core.Workflow.graph wf) ~weight
              ~pairs:(List.filteri (fun i _ -> i <= k) pairs))))

(* Each round program as the decline path hands it to [Ilp]: presolved.
   Every relaxation of its search runs the primal. *)
let test_dense_1c_matches_reference () =
  let programs = Lazy.force dense_1c_programs in
  let mismatches =
    List.filter
      (fun p ->
        let lp = covering_lp (Hs.presolve p).Hs.reduced in
        not
          (same_ilp
             (attempt (fun () -> Ilp.solve lp))
             (attempt (fun () -> Primal_reference.solve_ilp lp))))
      programs
  in
  Alcotest.(check int)
    (Printf.sprintf "mismatches of %d round programs" (List.length programs))
    0 (List.length mismatches)

let suite =
  [
    prop_matches_reference;
    Alcotest.test_case "dense 1c |N|=30 round programs match the frozen primal"
      `Quick test_dense_1c_matches_reference;
  ]
