module Bitset = Cdw_util.Bitset
module ISet = Set.Make (Int)

let test_add_mem_remove () =
  let s = Bitset.create 200 in
  Alcotest.(check bool) "initially empty" true (Bitset.cardinal s = 0);
  Bitset.add s 0;
  Bitset.add s 63;
  Bitset.add s 64;
  Bitset.add s 199;
  Alcotest.(check bool) "mem 63 (word boundary)" true (Bitset.mem s 63);
  Alcotest.(check bool) "mem 64" true (Bitset.mem s 64);
  Alcotest.(check bool) "not mem 100" false (Bitset.mem s 100);
  Alcotest.(check int) "cardinal" 4 (Bitset.cardinal s);
  Bitset.remove s 64;
  Alcotest.(check bool) "removed" false (Bitset.mem s 64);
  Alcotest.(check int) "cardinal after remove" 3 (Bitset.cardinal s)

let test_bounds () =
  let s = Bitset.create 10 in
  Alcotest.check_raises "out of range" (Invalid_argument "Bitset: 10 out of [0,10)")
    (fun () -> Bitset.add s 10)

let test_union () =
  let a = Bitset.create 100 and b = Bitset.create 100 in
  Bitset.add a 1;
  Bitset.add b 2;
  Bitset.add b 99;
  Bitset.union_into a b;
  Alcotest.(check (list int)) "union members" [ 1; 2; 99 ] (Bitset.to_list a);
  Alcotest.(check (list int)) "src untouched" [ 2; 99 ] (Bitset.to_list b)

let test_union_mismatch () =
  Alcotest.check_raises "capacity mismatch"
    (Invalid_argument "Bitset.union_into: capacity mismatch") (fun () ->
      Bitset.union_into (Bitset.create 10) (Bitset.create 20))

let test_iter_ascending () =
  let s = Bitset.create 300 in
  List.iter (Bitset.add s) [ 250; 7; 64; 128; 0; 63 ];
  let seen = ref [] in
  Bitset.iter (fun i -> seen := i :: !seen) s;
  Alcotest.(check (list int)) "increasing order" [ 0; 7; 63; 64; 128; 250 ]
    (List.rev !seen)

(* The masked operations against the same Set.Make(Int) model. *)
let prop_masked_model =
  let subset = QCheck2.Gen.(list_size (int_bound 40) (int_bound 129)) in
  Test_helpers.qcheck "masked ops vs Set.Make(Int)"
    QCheck2.Gen.(triple subset subset subset)
    (fun (la, lb, lm) ->
      let of_list l =
        let s = Bitset.create 130 in
        List.iter (Bitset.add s) l;
        s
      in
      let a = of_list la and b = of_list lb and mask = of_list lm in
      let sa = ISet.of_list la and sb = ISet.of_list lb and sm = ISet.of_list lm in
      let am = ISet.inter sa sm in
      Bitset.masked_subset a b ~mask = ISet.subset am (ISet.inter sb sm)
      && Bitset.masked_cardinal a ~mask = ISet.cardinal am
      && Bitset.masked_choose a ~mask = ISet.min_elt_opt am)

(* Model-based property: a Bitset behaves like Set.Make(Int) under a
   random operation sequence. *)
let prop_model =
  Test_helpers.qcheck "model equivalence vs Set.Make(Int)"
    QCheck2.Gen.(list (pair bool (int_bound 126)))
    (fun ops ->
      let bs = Bitset.create 127 in
      let model =
        List.fold_left
          (fun m (add, i) ->
            if add then begin
              Bitset.add bs i;
              ISet.add i m
            end
            else begin
              Bitset.remove bs i;
              ISet.remove i m
            end)
          ISet.empty ops
      in
      Bitset.to_list bs = ISet.elements model
      && Bitset.cardinal bs = ISet.cardinal model)

let suite =
  [
    Alcotest.test_case "add/mem/remove across word boundaries" `Quick
      test_add_mem_remove;
    Alcotest.test_case "bounds checking" `Quick test_bounds;
    Alcotest.test_case "union_into" `Quick test_union;
    Alcotest.test_case "union capacity mismatch" `Quick test_union_mismatch;
    Alcotest.test_case "iter in increasing order" `Quick test_iter_ascending;
    prop_model;
    prop_masked_model;
  ]
