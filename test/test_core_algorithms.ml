(* The worked examples of §4–§6 of the paper, used as ground-truth test
   vectors for the model semantics and every algorithm. *)

open Cdw_core
module Digraph = Cdw_graph.Digraph

let check_float = Alcotest.(check (float 1e-9))

(* §6 example 1: one user v1 → algorithm v2 → purposes v3, v4; initial
   valuation a; constraint (v1, v3). Removing the first edge yields
   utility 0, removing (v2, v3) keeps utility a. *)
let first_edge_example a =
  let wf = Workflow.create () in
  let v1 = Workflow.add_user ~name:"v1" wf in
  let v2 = Workflow.add_algorithm ~name:"v2" wf in
  let v3 = Workflow.add_purpose ~name:"v3" wf in
  let v4 = Workflow.add_purpose ~name:"v4" wf in
  let _ = Workflow.connect ~value:a wf v1 v2 in
  let _ = Workflow.connect wf v2 v3 in
  let _ = Workflow.connect wf v2 v4 in
  (wf, Constraint_set.make_exn wf [ (v1, v3) ])

let test_valuation_first_edge_example () =
  let wf, _ = first_edge_example 7.0 in
  let pi = Valuation.compute wf in
  let g = Workflow.graph wf in
  let edge u v =
    match Digraph.find_edge g u v with
    | Some e -> Digraph.edge_id e
    | None -> Alcotest.fail "edge missing"
  in
  check_float "pi(v1,v2)" 7.0 pi.(edge 0 1);
  check_float "pi(v2,v3)" 7.0 pi.(edge 1 2);
  check_float "pi(v2,v4)" 7.0 pi.(edge 1 3);
  check_float "U(G) = 2a" 14.0 (Utility.total wf)

let test_remove_first_edge_suboptimal () =
  let wf, cs = first_edge_example 5.0 in
  let o = Algorithms.remove_first_edge wf cs in
  Alcotest.(check bool)
    "feasible" true
    (Constraint_set.satisfied o.Algorithms.workflow cs);
  (* First edge (v1,v2) goes; the cascade kills (v2,v3) and (v2,v4). *)
  check_float "utility collapses to 0" 0.0 o.Algorithms.utility_after;
  Alcotest.(check int) "3 edges removed (cascade)" 3
    (List.length o.Algorithms.removed)

let test_brute_force_finds_optimum_example1 () =
  let wf, cs = first_edge_example 5.0 in
  let o = Algorithms.brute_force wf cs in
  Alcotest.(check bool)
    "feasible" true
    (Constraint_set.satisfied o.Algorithms.workflow cs);
  check_float "optimal utility a" 5.0 o.Algorithms.utility_after

(* §6 example 2 (Fig. 4): users s1, s2 → algorithm v1 → purposes t1, t2;
   π(s1,v1) = a > π(s2,v1) = b. *)
let fig4 a b =
  let wf = Workflow.create () in
  let s1 = Workflow.add_user ~name:"s1" wf in
  let s2 = Workflow.add_user ~name:"s2" wf in
  let v1 = Workflow.add_algorithm ~name:"v1" wf in
  let t1 = Workflow.add_purpose ~name:"t1" wf in
  let t2 = Workflow.add_purpose ~name:"t2" wf in
  let _ = Workflow.connect ~value:a wf s1 v1 in
  let _ = Workflow.connect ~value:b wf s2 v1 in
  let _ = Workflow.connect wf v1 t1 in
  let _ = Workflow.connect wf v1 t2 in
  (wf, s1, s2, v1, t1, t2)

(* Greedy RemoveMinCuts trap (§6): constraints {(s1,t1), (s1,t2)}; the
   greedy sequence removes (v1,t1) then (s1,v1) for utility b, while the
   optimum removes only (s1,v1) for utility 2b. *)
let test_remove_min_cuts_suboptimal () =
  let wf, s1, _, _, t1, t2 = fig4 10.0 4.0 in
  let cs = Constraint_set.make_exn wf [ (s1, t1); (s1, t2) ] in
  let greedy = Algorithms.solve Algorithms.Remove_min_cuts wf cs in
  Alcotest.(check bool)
    "greedy feasible" true
    (Constraint_set.satisfied greedy.Algorithms.workflow cs);
  check_float "greedy reaches only b" 4.0 greedy.Algorithms.utility_after;
  let best = Algorithms.brute_force wf cs in
  check_float "optimum is 2b" 8.0 best.Algorithms.utility_after

(* Under the same constraints the multicut formulation removes only
   (s1,v1): Theorem 6.1 settings, where RemoveMinMC is optimal. *)
let test_remove_min_mc_optimal_on_fig4_two_constraints () =
  let wf, s1, _, _, t1, t2 = fig4 10.0 4.0 in
  let cs = Constraint_set.make_exn wf [ (s1, t1); (s1, t2) ] in
  let o = Algorithms.remove_min_mc wf cs in
  Alcotest.(check bool)
    "feasible" true
    (Constraint_set.satisfied o.Algorithms.workflow cs);
  check_float "optimal utility 2b" 8.0 o.Algorithms.utility_after

(* §6 example 3: with N = {(s1,t1), (s1,t2), (s2,t1)} the optimum keeps
   only (s2,v1) and (v1,t2): utility b. Here the one-edge-per-path
   assumption of Thm 6.1 fails, yet the optimum is still found by the
   exhaustive searches. *)
let test_fig4_three_constraints_optimum () =
  let wf, s1, s2, _, t1, t2 = fig4 10.0 4.0 in
  let cs = Constraint_set.make_exn wf [ (s1, t1); (s1, t2); (s2, t1) ] in
  let o = Algorithms.brute_force wf cs in
  Alcotest.(check bool)
    "feasible" true
    (Constraint_set.satisfied o.Algorithms.workflow cs);
  check_float "optimum utility b" 4.0 o.Algorithms.utility_after;
  let bnb = Algorithms.solve Algorithms.Brute_force_bnb wf cs in
  check_float "bnb matches brute force" 4.0 bnb.Algorithms.utility_after

let test_all_algorithms_feasible_fig4 () =
  let wf, s1, s2, _, t1, t2 = fig4 9.0 3.0 in
  let cs = Constraint_set.make_exn wf [ (s1, t2); (s2, t1) ] in
  List.iter
    (fun name ->
      let o = Algorithms.solve name wf cs in
      Alcotest.(check bool)
        (Algorithms.to_string name ^ " feasible")
        true
        (Constraint_set.satisfied o.Algorithms.workflow cs);
      Alcotest.(check bool)
        (Algorithms.to_string name ^ " does not mutate input")
        true
        (Constraint_set.violated wf cs <> []))
    Algorithms.all_names

let suite =
  [
    Alcotest.test_case "valuation: §6 example graph" `Quick
      test_valuation_first_edge_example;
    Alcotest.test_case "remove-first-edge is suboptimal (§6)" `Quick
      test_remove_first_edge_suboptimal;
    Alcotest.test_case "brute force optimal on §6 example 1" `Quick
      test_brute_force_finds_optimum_example1;
    Alcotest.test_case "remove-min-cuts greedy trap (§6, Fig. 4)" `Quick
      test_remove_min_cuts_suboptimal;
    Alcotest.test_case "remove-min-mc optimal in Thm 6.1 setting" `Quick
      test_remove_min_mc_optimal_on_fig4_two_constraints;
    Alcotest.test_case "Fig. 4 with 3 constraints: optimum b" `Quick
      test_fig4_three_constraints_optimum;
    Alcotest.test_case "all algorithms return feasible solutions" `Quick
      test_all_algorithms_feasible_fig4;
  ]
