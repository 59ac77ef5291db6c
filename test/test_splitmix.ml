module Splitmix = Cdw_util.Splitmix

let stream seed n =
  let rng = Splitmix.create seed in
  List.init n (fun _ -> Splitmix.next_int64 rng)

let test_determinism () =
  Alcotest.(check bool) "same seed, same stream" true (stream 7 20 = stream 7 20);
  Alcotest.(check bool) "different seed, different stream" true
    (stream 7 20 <> stream 8 20)

let test_int_bounds () =
  let rng = Splitmix.create 1 in
  for _ = 1 to 1000 do
    let x = Splitmix.int rng 17 in
    if x < 0 || x >= 17 then Alcotest.fail "int out of bounds"
  done;
  Alcotest.check_raises "zero bound"
    (Invalid_argument "Splitmix.int: bound must be positive") (fun () ->
      ignore (Splitmix.int rng 0))

let test_int_in () =
  let rng = Splitmix.create 2 in
  let saw_lo = ref false and saw_hi = ref false in
  for _ = 1 to 2000 do
    let x = Splitmix.int_in rng 3 5 in
    if x < 3 || x > 5 then Alcotest.fail "int_in out of range";
    if x = 3 then saw_lo := true;
    if x = 5 then saw_hi := true
  done;
  Alcotest.(check bool) "range endpoints reachable" true (!saw_lo && !saw_hi)

let test_float_bounds () =
  let rng = Splitmix.create 3 in
  for _ = 1 to 1000 do
    let x = Splitmix.float rng 2.5 in
    if x < 0.0 || x >= 2.5 then Alcotest.fail "float out of bounds"
  done

let test_shuffle_is_permutation () =
  let rng = Splitmix.create 4 in
  let a = Array.init 50 (fun i -> i) in
  Splitmix.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

let test_state_replay () =
  let rng = Splitmix.create 5 in
  ignore (Splitmix.next_int64 rng);
  let saved = Splitmix.state rng in
  let first = List.init 10 (fun _ -> Splitmix.int rng 1000) in
  Splitmix.set_state rng saved;
  let again = List.init 10 (fun _ -> Splitmix.int rng 1000) in
  Alcotest.(check (list int)) "set_state replays the stream" first again;
  let fresh = Splitmix.create 0 in
  Splitmix.set_state fresh saved;
  Alcotest.(check (list int)) "state carries over to another generator" first
    (List.init 10 (fun _ -> Splitmix.int fresh 1000))

let test_bool_and_pick_list () =
  let rng = Splitmix.create 8 in
  let trues = ref 0 in
  for _ = 1 to 1000 do if Splitmix.bool rng then incr trues done;
  Alcotest.(check bool) "bool draws both values" true (!trues > 0 && !trues < 1000);
  let l = [ 'a'; 'b'; 'c' ] in
  let seen = Hashtbl.create 3 in
  for _ = 1 to 200 do Hashtbl.replace seen (Splitmix.pick_list rng l) () done;
  Alcotest.(check int) "pick_list reaches every element" 3 (Hashtbl.length seen);
  Alcotest.(check bool) "pick_list on a singleton" true
    (Splitmix.pick_list rng [ 'z' ] = 'z')

let test_pick () =
  let rng = Splitmix.create 6 in
  let a = [| "x"; "y"; "z" |] in
  for _ = 1 to 100 do
    let v = Splitmix.pick rng a in
    if not (Array.mem v a) then Alcotest.fail "pick outside array"
  done;
  Alcotest.check_raises "empty pick"
    (Invalid_argument "Splitmix.pick: empty array") (fun () ->
      ignore (Splitmix.pick rng [||]))

(* Crude uniformity check: over many draws every bucket of [0,8) gets
   within 30% of the expected share. *)
let test_rough_uniformity () =
  let rng = Splitmix.create 7 in
  let buckets = Array.make 8 0 in
  let n = 80_000 in
  for _ = 1 to n do
    let b = Splitmix.int rng 8 in
    buckets.(b) <- buckets.(b) + 1
  done;
  let expected = float_of_int n /. 8.0 in
  Array.iteri
    (fun i c ->
      let ratio = float_of_int c /. expected in
      if ratio < 0.7 || ratio > 1.3 then
        Alcotest.failf "bucket %d far from uniform: %f" i ratio)
    buckets

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "int bounds" `Quick test_int_bounds;
    Alcotest.test_case "int_in inclusive range" `Quick test_int_in;
    Alcotest.test_case "float bounds" `Quick test_float_bounds;
    Alcotest.test_case "shuffle is a permutation" `Quick test_shuffle_is_permutation;
    Alcotest.test_case "state/set_state replay" `Quick test_state_replay;
    Alcotest.test_case "bool and pick_list" `Quick test_bool_and_pick_list;
    Alcotest.test_case "pick" `Quick test_pick;
    Alcotest.test_case "rough uniformity" `Quick test_rough_uniformity;
  ]
