module Digraph = Cdw_graph.Digraph
module Topo = Cdw_graph.Topo
module Reach = Cdw_graph.Reach
module Bitset = Cdw_util.Bitset

let diamond () =
  (* 0 → 1 → 3, 0 → 2 → 3 *)
  let g = Digraph.create () in
  ignore (Digraph.add_vertices g 4);
  ignore (Digraph.add_edge g 0 1);
  ignore (Digraph.add_edge g 0 2);
  ignore (Digraph.add_edge g 1 3);
  ignore (Digraph.add_edge g 2 3);
  g

let test_topo_diamond () =
  let g = diamond () in
  let order = Topo.sort g in
  Alcotest.(check int) "covers all vertices" 4 (Array.length order);
  let idx = Topo.order_index g in
  Digraph.iter_edges
    (fun e ->
      if idx.(Digraph.edge_src e) >= idx.(Digraph.edge_dst e) then
        Alcotest.fail "edge against topological order")
    g;
  Alcotest.(check bool) "is_dag" true (Topo.is_dag g)

let test_topo_cycle () =
  let g = Digraph.create () in
  ignore (Digraph.add_vertices g 3);
  ignore (Digraph.add_edge g 0 1);
  ignore (Digraph.add_edge g 1 2);
  ignore (Digraph.add_edge g 2 0);
  Alcotest.(check bool) "cycle detected" false (Topo.is_dag g);
  (match Topo.sort g with
  | exception Topo.Cycle stuck ->
      Alcotest.(check (list int)) "cycle members" [ 0; 1; 2 ] stuck
  | _ -> Alcotest.fail "expected Cycle")

let test_topo_respects_removal () =
  let g = Digraph.create () in
  ignore (Digraph.add_vertices g 2);
  let e = Digraph.add_edge g 0 1 in
  let back = Digraph.add_edge g 1 0 in
  ignore e;
  Digraph.remove_edge g back;
  Alcotest.(check bool) "dag once back-edge removed" true (Topo.is_dag g)

let test_reach_diamond () =
  let g = diamond () in
  let from0 = Reach.from_source g 0 in
  Alcotest.(check (array bool)) "forward from 0" [| true; true; true; true |] from0;
  let to3 = Reach.to_target g 3 in
  Alcotest.(check (array bool)) "backward to 3" [| true; true; true; true |] to3;
  let from1 = Reach.from_source g 1 in
  Alcotest.(check (array bool)) "forward from 1" [| false; true; false; true |] from1;
  Alcotest.(check bool) "exists_path 0→3" true (Reach.exists_path g 0 3);
  Alcotest.(check bool) "no path 3→0" false (Reach.exists_path g 3 0)

let test_target_bitsets () =
  let g = diamond () in
  ignore (Digraph.add_vertices g 1);
  (* vertex 4 isolated *)
  let sets = Reach.target_bitsets g ~targets:[| 3; 4 |] in
  Alcotest.(check (list int)) "vertex 0 reaches target 3" [ 0 ] (Bitset.to_list sets.(0));
  Alcotest.(check (list int)) "target reaches itself" [ 0 ] (Bitset.to_list sets.(3));
  Alcotest.(check (list int)) "isolated target" [ 1 ] (Bitset.to_list sets.(4))

let test_reachability_subgraph_edges () =
  let g = diamond () in
  ignore (Digraph.add_vertices g 1);
  let dangling = Digraph.add_edge g 0 4 in
  let edges = Reach.reachability_subgraph_edges g 3 in
  Alcotest.(check int) "diamond edges only" 4 (List.length edges);
  Alcotest.(check bool) "dangling edge excluded" false
    (List.exists (fun e -> Digraph.edge_id e = Digraph.edge_id dangling) edges)

(* Property: topological order is valid on random DAGs. *)
let prop_topo_valid =
  Test_helpers.qcheck "topo order valid on random DAGs"
    QCheck2.Gen.(pair (int_range 0 100000) (int_range 2 30))
    (fun (seed, n) ->
      let g = Test_helpers.random_dag ~seed ~n ~density:0.2 in
      let idx = Topo.order_index g in
      Digraph.fold_edges
        (fun ok e -> ok && idx.(Digraph.edge_src e) < idx.(Digraph.edge_dst e))
        true g)

(* Property: forward reach from s agrees with backward reach to t. *)
let prop_reach_duality =
  Test_helpers.qcheck "from_source and to_target agree"
    QCheck2.Gen.(pair (int_range 0 100000) (int_range 3 25))
    (fun (seed, n) ->
      let g = Test_helpers.random_dag ~seed ~n ~density:0.25 in
      let ok = ref true in
      for s = 0 to n - 1 do
        let fwd = Reach.from_source g s in
        for t = 0 to n - 1 do
          let bwd = Reach.to_target g t in
          if fwd.(t) <> bwd.(s) then ok := false
        done
      done;
      !ok)

(* Property: the early-stopping exists_path agrees with a full BFS, on
   graphs with removed edges too. *)
let prop_exists_path_vs_bfs =
  Test_helpers.qcheck "exists_path equals full forward reach"
    QCheck2.Gen.(pair (int_range 0 100000) (int_range 3 25))
    (fun (seed, n) ->
      let g = Test_helpers.random_dag ~seed ~n ~density:0.25 in
      Digraph.iter_edges
        (fun e -> if Digraph.edge_id e mod 4 = seed mod 4 then Digraph.remove_edge g e)
        g;
      let ok = ref true in
      for s = 0 to n - 1 do
        let fwd = Reach.from_source g s in
        for t = 0 to n - 1 do
          if s <> t && Reach.exists_path g s t <> fwd.(t) then ok := false
        done
      done;
      !ok)

(* Property: target_bitsets agrees with per-target to_target. *)
let prop_bitsets_vs_bfs =
  Test_helpers.qcheck "target_bitsets equals per-target BFS"
    QCheck2.Gen.(pair (int_range 0 100000) (int_range 3 25))
    (fun (seed, n) ->
      let g = Test_helpers.random_dag ~seed ~n ~density:0.25 in
      let targets = [| n - 1; n / 2 |] in
      let sets = Reach.target_bitsets g ~targets in
      let ok = ref true in
      Array.iteri
        (fun i t ->
          let bwd = Reach.to_target g t in
          for v = 0 to n - 1 do
            if Bitset.mem sets.(v) i <> bwd.(v) then ok := false
          done)
        targets;
      !ok)

let suite =
  [
    Alcotest.test_case "topo on diamond" `Quick test_topo_diamond;
    Alcotest.test_case "topo detects cycles" `Quick test_topo_cycle;
    Alcotest.test_case "topo ignores removed edges" `Quick test_topo_respects_removal;
    Alcotest.test_case "reachability on diamond" `Quick test_reach_diamond;
    Alcotest.test_case "target bitsets" `Quick test_target_bitsets;
    Alcotest.test_case "reachability subgraph edges" `Quick
      test_reachability_subgraph_edges;
    prop_topo_valid;
    prop_reach_duality;
    prop_exists_path_vs_bfs;
    prop_bitsets_vs_bfs;
  ]
