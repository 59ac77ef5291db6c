module Digraph = Cdw_graph.Digraph
module Paths = Cdw_graph.Paths
module Timing = Cdw_util.Timing

let diamond () =
  let g = Digraph.create () in
  ignore (Digraph.add_vertices g 4);
  ignore (Digraph.add_edge g 0 1);
  ignore (Digraph.add_edge g 0 2);
  ignore (Digraph.add_edge g 1 3);
  ignore (Digraph.add_edge g 2 3);
  g

let test_diamond_paths () =
  let g = diamond () in
  let paths = Paths.all_paths g ~src:0 ~dst:3 in
  Alcotest.(check int) "two paths" 2 (List.length paths);
  List.iter
    (fun p ->
      Alcotest.(check int) "each path has 2 edges" 2 (List.length p);
      match p with
      | [ a; b ] ->
          Alcotest.(check int) "path starts at 0" 0 (Digraph.edge_src a);
          Alcotest.(check int) "path ends at 3" 3 (Digraph.edge_dst b);
          Alcotest.(check int) "consecutive" (Digraph.edge_dst a) (Digraph.edge_src b)
      | _ -> Alcotest.fail "unexpected shape")
    paths

let test_no_path () =
  let g = diamond () in
  Alcotest.(check int) "no backwards paths" 0
    (List.length (Paths.all_paths g ~src:3 ~dst:0))

let test_removal_respected () =
  let g = diamond () in
  (match Digraph.find_edge g 0 1 with
  | Some e -> Digraph.remove_edge g e
  | None -> Alcotest.fail "edge missing");
  Alcotest.(check int) "one path left" 1
    (List.length (Paths.all_paths g ~src:0 ~dst:3))

let test_max_paths_cap () =
  let g = diamond () in
  Alcotest.check_raises "cap exceeded" (Paths.Too_many_paths 1) (fun () ->
      ignore (Paths.all_paths ~max_paths:1 g ~src:0 ~dst:3))

let test_deadline () =
  (* A wide layered graph with many paths; an already-expired deadline
     must abort enumeration. *)
  let g = Test_helpers.random_dag ~seed:5 ~n:20 ~density:0.8 in
  Alcotest.check_raises "expired deadline" Timing.Timeout (fun () ->
      ignore (Paths.all_paths ~deadline:(Timing.now_ms () -. 1.0) g ~src:0 ~dst:19))

(* [k] diamonds in a row: 2^k paths from the first vertex to the last. *)
let diamond_chain k =
  let g = Digraph.create () in
  ignore (Digraph.add_vertices g ((3 * k) + 1));
  for i = 0 to k - 1 do
    let a = 3 * i in
    ignore (Digraph.add_edge g a (a + 1));
    ignore (Digraph.add_edge g a (a + 2));
    ignore (Digraph.add_edge g (a + 1) (a + 3));
    ignore (Digraph.add_edge g (a + 2) (a + 3))
  done;
  (g, 3 * k)

let test_diamond_chain () =
  let g, dst = diamond_chain 5 in
  Alcotest.(check int) "2^5 paths" 32
    (List.length (Paths.all_paths g ~src:0 ~dst));
  Alcotest.(check int) "cap at the exact count" 32
    (List.length (Paths.all_paths ~max_paths:32 g ~src:0 ~dst));
  Alcotest.check_raises "one under the count" (Paths.Too_many_paths 31) (fun () ->
      ignore (Paths.all_paths ~max_paths:31 g ~src:0 ~dst))

(* Path count by dynamic programming over the live out-edges; an
   oracle independent of the enumeration. *)
let count_paths g ~src ~dst =
  let memo = Hashtbl.create 16 in
  let rec count v =
    if v = dst then 1
    else
      match Hashtbl.find_opt memo v with
      | Some c -> c
      | None ->
          let c =
            List.fold_left
              (fun acc e -> acc + count (Digraph.edge_dst e))
              0 (Digraph.out_edges g v)
          in
          Hashtbl.add memo v c;
          c
  in
  count src

let prop_count_matches_enumeration =
  Test_helpers.qcheck "|all_paths| = DP path count"
    QCheck2.Gen.(pair (int_range 0 100000) (int_range 3 14))
    (fun (seed, n) ->
      let g = Test_helpers.random_dag ~seed ~n ~density:0.35 in
      let paths = Paths.all_paths ~max_paths:100_000 g ~src:0 ~dst:(n - 1) in
      count_paths g ~src:0 ~dst:(n - 1) = List.length paths)

(* Property: no path is listed twice. *)
let prop_paths_distinct =
  Test_helpers.qcheck "enumerated paths are distinct"
    QCheck2.Gen.(pair (int_range 0 100000) (int_range 3 12))
    (fun (seed, n) ->
      let g = Test_helpers.random_dag ~seed ~n ~density:0.5 in
      let ids =
        List.map
          (List.map Digraph.edge_id)
          (Paths.all_paths ~max_paths:100_000 g ~src:0 ~dst:(n - 1))
      in
      List.length (List.sort_uniq compare ids) = List.length ids)

(* Property: every enumerated path is simple, consecutive, and s→t. *)
let prop_paths_well_formed =
  Test_helpers.qcheck "enumerated paths are well-formed"
    QCheck2.Gen.(pair (int_range 0 100000) (int_range 3 12))
    (fun (seed, n) ->
      let g = Test_helpers.random_dag ~seed ~n ~density:0.4 in
      let paths = Paths.all_paths ~max_paths:100_000 g ~src:0 ~dst:(n - 1) in
      List.for_all
        (fun p ->
          match p with
          | [] -> false
          | first :: _ ->
              let rec consecutive = function
                | a :: (b :: _ as rest) ->
                    Digraph.edge_dst a = Digraph.edge_src b && consecutive rest
                | [ last ] -> Digraph.edge_dst last = n - 1
                | [] -> false
              in
              Digraph.edge_src first = 0 && consecutive p)
        paths)

let suite =
  [
    Alcotest.test_case "diamond has two paths" `Quick test_diamond_paths;
    Alcotest.test_case "no path" `Quick test_no_path;
    Alcotest.test_case "removed edges excluded" `Quick test_removal_respected;
    Alcotest.test_case "max_paths cap" `Quick test_max_paths_cap;
    Alcotest.test_case "cooperative deadline" `Quick test_deadline;
    Alcotest.test_case "chained diamonds and the exact cap" `Quick
      test_diamond_chain;
    prop_count_matches_enumeration;
    prop_paths_distinct;
    prop_paths_well_formed;
  ]
