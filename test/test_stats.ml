module Stats = Cdw_util.Stats

let check_float = Alcotest.(check (float 1e-9))

let test_summarize_known () =
  let s = Stats.summarize [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ] in
  check_float "mean" 5.0 s.Stats.mean;
  (* Sample std of this classic dataset is sqrt(32/7). *)
  check_float "std" (sqrt (32.0 /. 7.0)) s.Stats.std;
  check_float "se" (sqrt (32.0 /. 7.0) /. sqrt 8.0) s.Stats.se;
  check_float "min" 2.0 s.Stats.min;
  check_float "max" 9.0 s.Stats.max;
  Alcotest.(check int) "n" 8 s.Stats.n

let test_singleton () =
  let s = Stats.summarize [ 3.5 ] in
  check_float "mean" 3.5 s.Stats.mean;
  check_float "std of singleton" 0.0 s.Stats.std

let test_empty_raises () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.summarize: empty")
    (fun () -> ignore (Stats.summarize []))

let prop_mean_bounds =
  Test_helpers.qcheck "min ≤ mean ≤ max"
    QCheck2.Gen.(list_size (int_range 1 50) (float_range (-1000.0) 1000.0))
    (fun xs ->
      let s = Stats.summarize xs in
      s.Stats.min <= s.Stats.mean +. 1e-9 && s.Stats.mean <= s.Stats.max +. 1e-9)

let sample_gen =
  QCheck2.Gen.(list_size (int_range 2 40) (float_range (-1000.0) 1000.0))

let prop_se_is_std_over_sqrt_n =
  Test_helpers.qcheck "se = std / sqrt n" sample_gen (fun xs ->
      let s = Stats.summarize xs in
      Float.abs (s.Stats.se -. (s.Stats.std /. sqrt (float_of_int s.Stats.n)))
      <= 1e-9 *. (1.0 +. s.Stats.std))

let prop_order_independent =
  Test_helpers.qcheck "summary ignores sample order" sample_gen (fun xs ->
      let a = Stats.summarize xs and b = Stats.summarize (List.rev xs) in
      let close x y = Float.abs (x -. y) <= 1e-9 *. (1.0 +. Float.abs x) in
      a.Stats.n = b.Stats.n
      && close a.Stats.mean b.Stats.mean
      && close a.Stats.std b.Stats.std
      && a.Stats.min = b.Stats.min
      && a.Stats.max = b.Stats.max)

let prop_constant_sample =
  Test_helpers.qcheck "constant sample: zero spread"
    QCheck2.Gen.(pair (int_range 1 30) (float_range (-100.0) 100.0))
    (fun (n, x) ->
      let s = Stats.summarize (List.init n (fun _ -> x)) in
      s.Stats.n = n
      && Float.abs (s.Stats.mean -. x) <= 1e-9
      && s.Stats.std <= 1e-9
      && s.Stats.se <= 1e-9
      && s.Stats.min = x
      && s.Stats.max = x)

let suite =
  [
    Alcotest.test_case "summarize known dataset" `Quick test_summarize_known;
    Alcotest.test_case "singleton" `Quick test_singleton;
    Alcotest.test_case "empty raises" `Quick test_empty_raises;
    prop_mean_bounds;
    prop_se_is_std_over_sqrt_n;
    prop_order_independent;
    prop_constant_sample;
  ]
