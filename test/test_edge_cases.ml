(* Edge-case coverage for APIs exercised only indirectly elsewhere. *)

module Bitset = Cdw_util.Bitset
module Digraph = Cdw_graph.Digraph
module Multicut = Cdw_cut.Multicut
open Cdw_core

(* ------------------------- bitset masked ops ----------------------- *)

let test_masked_subset () =
  let a = Bitset.create 130 and b = Bitset.create 130 and m = Bitset.create 130 in
  Bitset.add a 0;
  Bitset.add a 129;
  Bitset.add b 0;
  (* Without a mask covering 129, a ⊆ b under the mask. *)
  Bitset.add m 0;
  Alcotest.(check bool) "subset under mask" true (Bitset.masked_subset a b ~mask:m);
  Bitset.add m 129;
  Alcotest.(check bool) "not subset once mask covers 129" false
    (Bitset.masked_subset a b ~mask:m);
  Alcotest.check_raises "capacity mismatch"
    (Invalid_argument "Bitset: capacity mismatch") (fun () ->
      ignore (Bitset.masked_subset a (Bitset.create 10) ~mask:m))

let test_masked_cardinal_choose () =
  let a = Bitset.create 100 and m = Bitset.create 100 in
  List.iter (Bitset.add a) [ 3; 50; 70 ];
  List.iter (Bitset.add m) [ 50; 70; 99 ];
  Alcotest.(check int) "cardinal" 2 (Bitset.masked_cardinal a ~mask:m);
  Alcotest.(check (option int)) "choose smallest" (Some 50)
    (Bitset.masked_choose a ~mask:m);
  List.iter (Bitset.remove m) [ 50; 70; 99 ];
  Alcotest.(check (option int)) "empty mask" None (Bitset.masked_choose a ~mask:m)

let test_empty_universe () =
  let s = Bitset.create 0 in
  Alcotest.(check int) "cardinal" 0 (Bitset.cardinal s);
  Alcotest.(check (list int)) "to_list" [] (Bitset.to_list s);
  Alcotest.(check (option int)) "choose" None (Bitset.masked_choose s ~mask:s);
  Alcotest.check_raises "no member fits" (Invalid_argument "Bitset: 0 out of [0,0)")
    (fun () -> Bitset.add s 0);
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Bitset.create: negative capacity") (fun () ->
      ignore (Bitset.create (-1)))

(* ----------------------------- digraph ----------------------------- *)

let test_add_vertices_guard () =
  let g = Digraph.create () in
  Alcotest.check_raises "non-positive k"
    (Invalid_argument "Digraph.add_vertices: k must be positive") (fun () ->
      ignore (Digraph.add_vertices g 0))

let test_paths_src_is_dst () =
  let g = Digraph.create () in
  ignore (Digraph.add_vertices g 2);
  ignore (Digraph.add_edge g 0 1);
  Alcotest.check_raises "src = dst" (Invalid_argument "Paths.all_paths: src = dst")
    (fun () -> ignore (Cdw_graph.Paths.all_paths g ~src:1 ~dst:1))

(* ----------------------------- serving ----------------------------- *)

let test_serving_zero_shards () =
  let wf = Workflow.create () in
  let u = Workflow.add_user ~name:"u" wf in
  let p = Workflow.add_purpose ~name:"p" wf in
  ignore (Workflow.connect wf u p);
  Alcotest.check_raises "shards < 1"
    (Invalid_argument "Serving.create: shards must be >= 1") (fun () ->
      ignore (Cdw_shard.Serving.create ~shards:0 wf))

(* --------------------------- multicut misc ------------------------- *)

let test_minimalize_drops_redundant () =
  (* 0→1→3, 0→2→3; cutting all four edges is feasible but the expensive
     ones must be re-admitted. *)
  let g = Digraph.create () in
  ignore (Digraph.add_vertices g 4);
  let e01 = Digraph.add_edge g 0 1 in
  let e02 = Digraph.add_edge g 0 2 in
  let e13 = Digraph.add_edge g 1 3 in
  let e23 = Digraph.add_edge g 2 3 in
  let weight e =
    match Digraph.edge_id e with
    | id when id = Digraph.edge_id e01 -> 10.0
    | id when id = Digraph.edge_id e02 -> 9.0
    | _ -> 1.0
  in
  let pruned =
    Multicut.minimalize g [ e01; e02; e13; e23 ] ~weight ~pairs:[ (0, 3) ]
  in
  Alcotest.(check bool) "still a multicut" true
    (Multicut.is_multicut g pruned ~pairs:[ (0, 3) ]);
  Alcotest.(check (list int)) "keeps only the cheap edges"
    [ Digraph.edge_id e13; Digraph.edge_id e23 ]
    (List.sort compare (List.map Digraph.edge_id pruned));
  (* Graph left intact. *)
  Alcotest.(check int) "all edges live again" 4 (Digraph.n_edges g)

(* ---------------------------- serialize ---------------------------- *)

(* Fuzz: the parser never raises; it returns Ok or Error. *)
let prop_parse_total =
  Test_helpers.qcheck ~count:200 "Serialize.parse is total"
    QCheck2.Gen.(string_size ~gen:printable (int_range 0 80))
    (fun text ->
      match Serialize.parse text with Ok _ | Error _ -> true)

(* Fuzz harder: random token soup from the grammar's vocabulary. *)
let prop_parse_token_soup =
  let vocab =
    [| "user"; "algorithm"; "purpose"; "edge"; "constraint"; "weight";
       "value"; "a"; "b"; "1.5"; "-3"; "#x"; ""; "\t" |]
  in
  Test_helpers.qcheck ~count:200 "Serialize.parse survives token soup"
    QCheck2.Gen.(list_size (int_range 0 30) (int_bound (Array.length vocab - 1)))
    (fun picks ->
      let text =
        String.concat " "
          (List.map (fun i -> vocab.(i)) picks)
        |> String.split_on_char '#'
        |> String.concat "\n"
      in
      match Serialize.parse text with Ok _ | Error _ -> true)

let suite =
  [
    Alcotest.test_case "bitset masked_subset" `Quick test_masked_subset;
    Alcotest.test_case "bitset masked_cardinal/choose" `Quick
      test_masked_cardinal_choose;
    Alcotest.test_case "bitset over an empty universe" `Quick test_empty_universe;
    Alcotest.test_case "digraph add_vertices guard" `Quick test_add_vertices_guard;
    Alcotest.test_case "paths from a vertex to itself" `Quick test_paths_src_is_dst;
    Alcotest.test_case "serving with zero shards" `Quick test_serving_zero_shards;
    Alcotest.test_case "multicut minimalize" `Quick test_minimalize_drops_redundant;
    prop_parse_total;
    prop_parse_token_soup;
  ]
