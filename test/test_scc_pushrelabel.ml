module Digraph = Cdw_graph.Digraph
module Scc = Cdw_graph.Scc
module Flow_net = Cdw_flow.Flow_net
module Push_relabel = Cdw_flow.Push_relabel
module Maxflow = Cdw_flow.Maxflow
open Cdw_core

(* ------------------------------- SCC ------------------------------- *)

let test_scc_dag_all_singletons () =
  let g = Test_helpers.random_dag ~seed:7 ~n:12 ~density:0.3 in
  let comps = Scc.tarjan g in
  Alcotest.(check int) "n components" 12 (List.length comps);
  List.iter (fun c -> Alcotest.(check int) "singleton" 1 (List.length c)) comps;
  Alcotest.(check (list (list int))) "no cycles" [] (Scc.cyclic_components g)

let test_scc_detects_cycles () =
  let g = Digraph.create () in
  ignore (Digraph.add_vertices g 6);
  (* Cycle 0→1→2→0, cycle 3→4→3, vertex 5 isolated. *)
  ignore (Digraph.add_edge g 0 1);
  ignore (Digraph.add_edge g 1 2);
  ignore (Digraph.add_edge g 2 0);
  ignore (Digraph.add_edge g 3 4);
  ignore (Digraph.add_edge g 4 3);
  ignore (Digraph.add_edge g 2 3);
  let cycles = List.sort compare (Scc.cyclic_components g) in
  Alcotest.(check (list (list int))) "two cycles" [ [ 0; 1; 2 ]; [ 3; 4 ] ] cycles

let test_scc_respects_removal () =
  let g = Digraph.create () in
  ignore (Digraph.add_vertices g 2);
  ignore (Digraph.add_edge g 0 1);
  let back = Digraph.add_edge g 1 0 in
  Alcotest.(check int) "one cycle" 1 (List.length (Scc.cyclic_components g));
  Digraph.remove_edge g back;
  Alcotest.(check int) "cycle gone" 0 (List.length (Scc.cyclic_components g))

let test_validate_names_cycle () =
  let wf = Workflow.create () in
  let u = Workflow.add_user ~name:"u" wf in
  let a = Workflow.add_algorithm ~name:"alpha" wf in
  let b = Workflow.add_algorithm ~name:"beta" wf in
  let p = Workflow.add_purpose ~name:"p" wf in
  ignore (Workflow.connect wf u a);
  ignore (Workflow.connect wf a b);
  ignore (Workflow.connect wf b p);
  (* Force a cycle through the raw graph (the builder would refuse). *)
  ignore (Digraph.add_edge (Workflow.graph wf) b a);
  match Workflow.validate wf with
  | Error errs ->
      Alcotest.(check bool) "cycle names both vertices" true
        (List.exists (fun e -> e = "cycle through {alpha, beta}") errs)
  | Ok () -> Alcotest.fail "expected cycle error"

(* --------------------------- push-relabel -------------------------- *)

let clrs () =
  let g = Digraph.create () in
  ignore (Digraph.add_vertices g 6);
  let caps = Hashtbl.create 16 in
  let edge u v c =
    let e = Digraph.add_edge g u v in
    Hashtbl.add caps (Digraph.edge_id e) c
  in
  edge 0 1 16.0;
  edge 0 2 13.0;
  edge 1 3 12.0;
  edge 2 1 4.0;
  edge 2 4 14.0;
  edge 3 2 9.0;
  edge 3 5 20.0;
  edge 4 3 7.0;
  edge 4 5 4.0;
  (g, fun e -> Hashtbl.find caps (Digraph.edge_id e))

let test_push_relabel_clrs () =
  let g, cap = clrs () in
  let net = Flow_net.of_digraph g ~capacity:cap in
  Alcotest.(check (float 1e-6)) "max flow 23" 23.0
    (Push_relabel.max_flow net ~src:0 ~dst:5)

let test_push_relabel_disconnected () =
  let g = Digraph.create () in
  ignore (Digraph.add_vertices g 3);
  ignore (Digraph.add_edge g 0 1);
  let net = Flow_net.of_digraph g ~capacity:(fun _ -> 3.0) in
  Alcotest.(check (float 1e-9)) "zero flow" 0.0
    (Push_relabel.max_flow net ~src:0 ~dst:2)

let prop_push_relabel_equals_dinic =
  Test_helpers.qcheck ~count:80 "push-relabel = dinic on random DAGs"
    QCheck2.Gen.(pair (int_range 0 100000) (int_range 3 22))
    (fun (seed, n) ->
      let g = Test_helpers.random_dag ~seed ~n ~density:0.35 in
      let cap e = float_of_int (1 + (Hashtbl.hash (seed, Digraph.edge_id e) mod 20)) in
      let f1 = Maxflow.dinic (Flow_net.of_digraph g ~capacity:cap) ~src:0 ~dst:(n - 1) in
      let f2 =
        Push_relabel.max_flow (Flow_net.of_digraph g ~capacity:cap) ~src:0
          ~dst:(n - 1)
      in
      Float.abs (f1 -. f2) < 1e-6)

let suite =
  [
    Alcotest.test_case "scc: DAG has singleton components" `Quick
      test_scc_dag_all_singletons;
    Alcotest.test_case "scc: finds both cycles" `Quick test_scc_detects_cycles;
    Alcotest.test_case "scc: ignores removed edges" `Quick test_scc_respects_removal;
    Alcotest.test_case "validate names cycle members" `Quick test_validate_names_cycle;
    Alcotest.test_case "push-relabel on CLRS network" `Quick test_push_relabel_clrs;
    Alcotest.test_case "push-relabel: disconnected" `Quick
      test_push_relabel_disconnected;
    prop_push_relabel_equals_dinic;
  ]
