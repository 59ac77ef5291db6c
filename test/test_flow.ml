module Digraph = Cdw_graph.Digraph
module Flow_net = Cdw_flow.Flow_net
module Maxflow = Cdw_flow.Maxflow
module Mincut = Cdw_flow.Mincut
module Reach = Cdw_graph.Reach

let check_float = Alcotest.(check (float 1e-6))

(* The classic CLRS example network; max flow 23. *)
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

let test_dinic_clrs () =
  let g, cap = clrs () in
  let net = Flow_net.of_digraph g ~capacity:cap in
  check_float "max flow 23" 23.0 (Maxflow.dinic net ~src:0 ~dst:5)

let test_edmonds_karp_clrs () =
  let g, cap = clrs () in
  let net = Flow_net.of_digraph g ~capacity:cap in
  check_float "max flow 23" 23.0 (Maxflow.edmonds_karp net ~src:0 ~dst:5)

(* Per-vertex inflow and outflow read off a network's residuals: a
   forward arc's flow is its pair's residual, since reverse arcs start
   at zero capacity. *)
let flow_balance net =
  let n = Flow_net.n_vertices net in
  let inflow = Array.make n 0.0 and outflow = Array.make n 0.0 in
  for v = 0 to n - 1 do
    List.iter
      (fun a ->
        if a land 1 = 0 then begin
          let f = Flow_net.residual net (a lxor 1) in
          outflow.(v) <- outflow.(v) +. f;
          let w = Flow_net.arc_dst net a in
          inflow.(w) <- inflow.(w) +. f
        end)
      (Flow_net.arcs_from net v)
  done;
  (inflow, outflow)

let test_residual_flow_value () =
  let g, cap = clrs () in
  let net = Flow_net.of_digraph g ~capacity:cap in
  let value = Maxflow.dinic net ~src:0 ~dst:5 in
  let inflow, outflow = flow_balance net in
  check_float "net flow out of the source" value (outflow.(0) -. inflow.(0));
  check_float "net flow into the sink" value (inflow.(5) -. outflow.(5))

let test_saturated_rerun () =
  let g, cap = clrs () in
  let net = Flow_net.of_digraph g ~capacity:cap in
  ignore (Maxflow.dinic net ~src:0 ~dst:5);
  check_float "no augmenting path left" 0.0 (Maxflow.dinic net ~src:0 ~dst:5);
  check_float "edmonds-karp agrees" 0.0 (Maxflow.edmonds_karp net ~src:0 ~dst:5)

let test_push_pairs () =
  let g = Digraph.create () in
  ignore (Digraph.add_vertices g 2);
  ignore (Digraph.add_edge g 0 1);
  let net = Flow_net.of_digraph g ~capacity:(fun _ -> 5.0) in
  Alcotest.(check int) "vertices" 2 (Flow_net.n_vertices net);
  Alcotest.(check (list int)) "forward arc leaves the tail" [ 0 ]
    (Flow_net.arcs_from net 0);
  Alcotest.(check (list int)) "reverse stub at the head" [ 1 ]
    (Flow_net.arcs_from net 1);
  Alcotest.(check int) "forward head" 1 (Flow_net.arc_dst net 0);
  Alcotest.(check int) "reverse head" 0 (Flow_net.arc_dst net 1);
  Flow_net.push net 0 2.0;
  check_float "forward residual drops" 3.0 (Flow_net.residual net 0);
  check_float "reverse residual rises" 2.0 (Flow_net.residual net 1);
  Flow_net.push net 1 2.0;
  check_float "cancelled forward" 5.0 (Flow_net.residual net 0);
  check_float "cancelled reverse" 0.0 (Flow_net.residual net 1)

let test_disconnected () =
  let g = Digraph.create () in
  ignore (Digraph.add_vertices g 4);
  ignore (Digraph.add_edge g 0 1);
  ignore (Digraph.add_edge g 2 3);
  let net = Flow_net.of_digraph g ~capacity:(fun _ -> 5.0) in
  check_float "no s-t path, zero flow" 0.0 (Maxflow.dinic net ~src:0 ~dst:3)

let test_mincut_clrs () =
  let g, cap = clrs () in
  let { Mincut.value; edges } = Mincut.compute g ~capacity:cap ~src:0 ~dst:5 in
  check_float "cut value = max flow" 23.0 value;
  (* The CLRS minimum cut is {(1,3), (4,3), (4,5)}. *)
  let pairs =
    List.sort compare
      (List.map (fun e -> (Digraph.edge_src e, Digraph.edge_dst e)) edges)
  in
  Alcotest.(check (list (pair int int))) "cut edges" [ (1, 3); (4, 3); (4, 5) ] pairs;
  (* Removing the cut disconnects source from sink. *)
  List.iter (fun e -> Digraph.remove_edge g e) edges;
  Alcotest.(check bool) "disconnected" false (Reach.exists_path g 0 5)

let test_negative_capacity_rejected () =
  let g = Digraph.create () in
  ignore (Digraph.add_vertices g 2);
  ignore (Digraph.add_edge g 0 1);
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Flow_net: negative capacity") (fun () ->
      ignore (Flow_net.of_digraph g ~capacity:(fun _ -> -1.0)))

(* Random capacities for property tests. *)
let cap_of_seed seed e =
  let h = Hashtbl.hash (seed, Digraph.edge_id e) in
  float_of_int (1 + (h mod 20))

let prop_dinic_equals_edmonds_karp =
  Test_helpers.qcheck "dinic = edmonds_karp on random DAGs"
    QCheck2.Gen.(pair (int_range 0 100000) (int_range 3 20))
    (fun (seed, n) ->
      let g = Test_helpers.random_dag ~seed ~n ~density:0.35 in
      let cap = cap_of_seed seed in
      let f1 = Maxflow.dinic (Flow_net.of_digraph g ~capacity:cap) ~src:0 ~dst:(n - 1) in
      let f2 =
        Maxflow.edmonds_karp (Flow_net.of_digraph g ~capacity:cap) ~src:0 ~dst:(n - 1)
      in
      Float.abs (f1 -. f2) < 1e-6)

let prop_mincut_duality =
  Test_helpers.qcheck "min cut: value = flow, cut disconnects, weight matches"
    QCheck2.Gen.(pair (int_range 0 100000) (int_range 3 20))
    (fun (seed, n) ->
      let g = Test_helpers.random_dag ~seed ~n ~density:0.35 in
      let cap = cap_of_seed seed in
      let flow = Maxflow.dinic (Flow_net.of_digraph g ~capacity:cap) ~src:0 ~dst:(n - 1) in
      let { Mincut.value; edges } = Mincut.compute g ~capacity:cap ~src:0 ~dst:(n - 1) in
      let cut_weight = List.fold_left (fun acc e -> acc +. cap e) 0.0 edges in
      List.iter (fun e -> Digraph.remove_edge g e) edges;
      let disconnected = not (Reach.exists_path g 0 (n - 1)) in
      List.iter (fun e -> Digraph.restore_edge g e) edges;
      Float.abs (value -. flow) < 1e-6
      && Float.abs (cut_weight -. flow) < 1e-6
      && disconnected)

let prop_conservation =
  Test_helpers.qcheck "dinic flow: conserved, within capacity"
    QCheck2.Gen.(pair (int_range 0 100000) (int_range 3 20))
    (fun (seed, n) ->
      let g = Test_helpers.random_dag ~seed ~n ~density:0.35 in
      let net = Flow_net.of_digraph g ~capacity:(cap_of_seed seed) in
      let value = Maxflow.dinic net ~src:0 ~dst:(n - 1) in
      let inflow, outflow = flow_balance net in
      let close a b = Float.abs (a -. b) < 1e-6 in
      let within = ref true in
      for v = 0 to n - 1 do
        List.iter
          (fun a -> if Flow_net.residual net a < -.Flow_net.eps then within := false)
          (Flow_net.arcs_from net v)
      done;
      !within
      && close value (outflow.(0) -. inflow.(0))
      && List.for_all
           (fun v -> close inflow.(v) outflow.(v))
           (List.init (n - 2) (fun i -> i + 1)))

let suite =
  [
    Alcotest.test_case "dinic on CLRS network" `Quick test_dinic_clrs;
    Alcotest.test_case "edmonds-karp on CLRS network" `Quick test_edmonds_karp_clrs;
    Alcotest.test_case "residuals carry the flow value" `Quick
      test_residual_flow_value;
    Alcotest.test_case "saturated network admits no more flow" `Quick
      test_saturated_rerun;
    Alcotest.test_case "push moves residual to the paired arc" `Quick
      test_push_pairs;
    Alcotest.test_case "disconnected network" `Quick test_disconnected;
    Alcotest.test_case "min cut on CLRS network" `Quick test_mincut_clrs;
    Alcotest.test_case "negative capacity rejected" `Quick
      test_negative_capacity_rejected;
    prop_dinic_equals_edmonds_karp;
    prop_mincut_duality;
    prop_conservation;
  ]
