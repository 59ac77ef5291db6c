module Vec = Cdw_util.Vec

let of_list l =
  let v = Vec.create () in
  List.iter (Vec.push v) l;
  v

let test_push_get () =
  let v = Vec.create () in
  for i = 0 to 99 do Vec.push v (i * i) done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get 7" 49 (Vec.get v 7);
  Alcotest.(check int) "get 99" 9801 (Vec.get v 99)

let test_set () =
  let v = of_list [ 0; 0; 0; 0; 0 ] in
  Vec.set v 2 42;
  Alcotest.(check int) "set/get" 42 (Vec.get v 2);
  Alcotest.(check int) "others untouched" 0 (Vec.get v 3)

let test_bounds () =
  let v = of_list [ 1 ] in
  Alcotest.check_raises "get out of bounds"
    (Invalid_argument "Vec: index 1 out of bounds [0,1)") (fun () ->
      ignore (Vec.get v 1));
  Alcotest.check_raises "negative index"
    (Invalid_argument "Vec: index -1 out of bounds [0,1)") (fun () ->
      ignore (Vec.get v (-1)))

let test_copy_independent () =
  let v = of_list [ 1; 2 ] in
  let w = Vec.copy v in
  Vec.set w 0 99;
  Vec.push w 3;
  Alcotest.(check int) "original unchanged" 1 (Vec.get v 0);
  Alcotest.(check int) "original length" 2 (Vec.length v)

let test_iter_order () =
  let v = of_list [ 3; 1; 4; 1; 5 ] in
  let seen = ref [] in
  Vec.iter (fun x -> seen := x :: !seen) v;
  Alcotest.(check (list int)) "index order" [ 3; 1; 4; 1; 5 ] (List.rev !seen)

let test_grows () =
  let v = Vec.create () in
  Alcotest.(check int) "starts empty" 0 (Vec.length v);
  for i = 1 to 50 do Vec.push v i done;
  Alcotest.(check int) "grew" 50 (Vec.length v);
  Alcotest.(check (array int)) "contents kept across growth"
    (Array.init 50 (fun i -> i + 1))
    (Vec.to_array v)

let test_set_bounds () =
  let v = of_list [ 1; 2 ] in
  Alcotest.check_raises "set at length"
    (Invalid_argument "Vec: index 2 out of bounds [0,2)") (fun () -> Vec.set v 2 0);
  Alcotest.check_raises "get on empty"
    (Invalid_argument "Vec: index 0 out of bounds [0,0)") (fun () ->
      ignore (Vec.get (Vec.create () : int Vec.t) 0))

let test_to_array_snapshot () =
  let v = of_list [ 1; 2; 3 ] in
  let a = Vec.to_array v in
  Vec.set v 0 100;
  Vec.push v 4;
  Alcotest.(check (array int)) "array unaffected" [| 1; 2; 3 |] a;
  Alcotest.(check int) "vector changed" 100 (Vec.get v 0)

let prop_push_like_append =
  Test_helpers.qcheck "push sequence equals list"
    QCheck2.Gen.(list small_int)
    (fun l ->
      let v = Vec.create () in
      List.iter (Vec.push v) l;
      Array.to_list (Vec.to_array v) = l)

let suite =
  [
    Alcotest.test_case "push/get" `Quick test_push_get;
    Alcotest.test_case "set" `Quick test_set;
    Alcotest.test_case "bounds checking" `Quick test_bounds;
    Alcotest.test_case "copy is independent" `Quick test_copy_independent;
    Alcotest.test_case "iter in index order" `Quick test_iter_order;
    Alcotest.test_case "grows past its first storage" `Quick test_grows;
    Alcotest.test_case "set and empty get are bounds-checked" `Quick test_set_bounds;
    Alcotest.test_case "to_array is a snapshot" `Quick test_to_array_snapshot;
    prop_push_like_append;
  ]
