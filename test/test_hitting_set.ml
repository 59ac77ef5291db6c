module Hs = Cdw_cut.Hitting_set

let check_float = Alcotest.(check (float 1e-9))

let problem ~weights ~sets =
  { Hs.n_elems = Array.length weights; weights; sets }

(* The certified dual simplex behind [solve_ilp]. *)
let fast p = Cdw_lp.Simplex.solve_cover_unique ~weights:p.Hs.weights p.Hs.sets

let test_single_set () =
  let p = problem ~weights:[| 5.0; 2.0; 7.0 |] ~sets:[| [| 0; 1; 2 |] |] in
  let chosen = Hs.solve_ilp p in
  Alcotest.(check (array bool)) "cheapest element" [| false; true; false |] chosen;
  check_float "cost" 2.0 (Hs.cost p chosen);
  Alcotest.(check bool) "covers" true (Hs.covers p chosen)

let test_overlap_beats_singletons () =
  (* Element 2 hits both sets for 3 < 1+2.5. *)
  let p =
    problem ~weights:[| 1.0; 2.5; 3.0 |] ~sets:[| [| 0; 2 |]; [| 1; 2 |] |]
  in
  Alcotest.(check (array bool)) "ilp picks the hub" [| false; false; true |]
    (Hs.solve_ilp p);
  Alcotest.(check (array bool)) "bnb picks the hub" [| false; false; true |]
    (Hs.solve_bnb p);
  Alcotest.(check (option (array bool))) "fast path certifies the hub"
    (Some [| false; false; true |]) (fast p)

let test_greedy_can_be_suboptimal_but_covers () =
  (* The classic greedy trap: hub element slightly worse per-set. *)
  let p =
    problem
      ~weights:[| 1.0; 1.0; 1.9 |]
      ~sets:[| [| 0; 2 |]; [| 1; 2 |] |]
  in
  let g = Hs.solve_greedy p in
  Alcotest.(check bool) "greedy covers" true (Hs.covers p g);
  let exact = Hs.solve_bnb p in
  Alcotest.(check bool) "exact no worse" true
    (Hs.cost p exact <= Hs.cost p g +. 1e-9)

let test_empty_set_rejected () =
  let p = problem ~weights:[| 1.0 |] ~sets:[| [||] |] in
  Alcotest.check_raises "unhittable"
    (Invalid_argument "Hitting_set: empty set cannot be hit") (fun () ->
      ignore (Hs.solve_ilp p))

let test_no_sets () =
  let p = problem ~weights:[| 1.0; 2.0 |] ~sets:[||] in
  Alcotest.(check (array bool)) "nothing chosen" [| false; false |]
    (Hs.solve_bnb p);
  check_float "zero cost" 0.0 (Hs.cost p (Hs.solve_ilp p))

let test_presolve_singleton_forces () =
  let p = problem ~weights:[| 1.0; 9.0 |] ~sets:[| [| 0 |]; [| 0; 1 |] |] in
  let info = Hs.presolve p in
  Alcotest.(check (list int)) "element 0 forced" [ 0 ] info.Hs.forced;
  Alcotest.(check int) "no sets left" 0 (Array.length info.Hs.reduced.Hs.sets);
  let chosen = Hs.solve_ilp p in
  Alcotest.(check (array bool)) "solution via presolve" [| true; false |] chosen

let test_presolve_row_dominance () =
  (* {1} ⊆ {0,1}: the superset row is redundant. *)
  let p = problem ~weights:[| 5.0; 2.0 |] ~sets:[| [| 0; 1 |]; [| 1 |] |] in
  let info = Hs.presolve p in
  (* Singleton {1} then forces element 1, clearing everything. *)
  Alcotest.(check (list int)) "forced" [ 1 ] info.Hs.forced;
  Alcotest.(check bool) "cover" true (Hs.covers p (Hs.solve_bnb p))

let test_presolve_column_dominance () =
  (* Element 2 appears wherever 0 and 1 do, cheaper: 0 and 1 drop out. *)
  let p =
    problem ~weights:[| 5.0; 6.0; 1.0 |]
      ~sets:[| [| 0; 2 |]; [| 1; 2 |]; [| 0; 1; 2 |] |]
  in
  let info = Hs.presolve p in
  (* Dominance leaves only the hub, which then gets forced as a
     singleton — the reduction solves the instance outright. *)
  Alcotest.(check int) "reduced problem is empty" 0 info.Hs.reduced.Hs.n_elems;
  Alcotest.(check (list int)) "hub forced" [ 2 ] info.Hs.forced;
  Alcotest.(check (array bool)) "hub chosen" [| false; false; true |]
    (Hs.solve_ilp p)

let random_problem seed =
  let rng = Cdw_util.Splitmix.create seed in
  let n = 2 + Cdw_util.Splitmix.int rng 7 in
  let m = 1 + Cdw_util.Splitmix.int rng 6 in
  let weights =
    Array.init n (fun _ -> float_of_int (1 + Cdw_util.Splitmix.int rng 9))
  in
  let sets =
    Array.init m (fun _ ->
        let forced = Cdw_util.Splitmix.int rng n in
        let extra =
          List.filter
            (fun j -> j <> forced && Cdw_util.Splitmix.int rng 3 = 0)
            (List.init n Fun.id)
        in
        Array.of_list (forced :: extra))
  in
  problem ~weights ~sets

let prop_presolve_preserves_optimum =
  Test_helpers.qcheck ~count:80 "presolve preserves the optimal cost"
    QCheck2.Gen.(int_range 200000 300000)
    (fun seed ->
      let p = random_problem seed in
      let via_presolve = Hs.solve_ilp p in
      let raw = Hs.solve_bnb p in
      Hs.covers p via_presolve
      && Float.abs (Hs.cost p via_presolve -. Hs.cost p raw) < 1e-6)

let prop_solvers_agree =
  Test_helpers.qcheck ~count:80 "ILP and combinatorial B&B agree; greedy covers"
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let p = random_problem seed in
      let ilp = Hs.solve_ilp p in
      let bnb = Hs.solve_bnb p in
      let greedy = Hs.solve_greedy p in
      Hs.covers p ilp && Hs.covers p bnb && Hs.covers p greedy
      && Float.abs (Hs.cost p ilp -. Hs.cost p bnb) < 1e-6
      && Hs.cost p ilp <= Hs.cost p greedy +. 1e-6)

(* Programs shaped like the lazy multicut's declined pools: 10 to 60
   elements (edges) laid out as chains of one to five consecutive ones
   (path segments), and up to 16 sets (paths), each the union of one to
   four chains, so every element of a chain has the same membership.
   Weights tie heavily (from {1, 2}, or equal along a chain) or are
   drawn from a continuum. *)
let chain_problem rng =
  let module Sm = Cdw_util.Splitmix in
  let n = 10 + Sm.int rng 51 in
  let chain_of = Array.make n 0 in
  let n_chains = ref 0 in
  let e = ref 0 in
  while !e < n do
    let len = 1 + Sm.int rng 5 in
    for k = !e to min n (!e + len) - 1 do
      chain_of.(k) <- !n_chains
    done;
    incr n_chains;
    e := !e + len
  done;
  let chain_weight = Array.init !n_chains (fun _ -> float_of_int (1 + Sm.int rng 3)) in
  let weights =
    match Sm.int rng 3 with
    | 0 -> Array.init n (fun _ -> float_of_int (1 + Sm.int rng 2))
    | 1 -> Array.init n (fun k -> chain_weight.(chain_of.(k)))
    | _ -> Array.init n (fun _ -> Sm.float rng 10.0)
  in
  let sets =
    Array.init
      (1 + Sm.int rng 16)
      (fun _ ->
        let chains = List.init (1 + Sm.int rng 4) (fun _ -> Sm.int rng !n_chains) in
        Array.of_list
          (List.filter
             (fun k -> List.mem chain_of.(k) chains)
             (List.init n Fun.id)))
  in
  problem ~weights ~sets

(* Problems for the presolve differential: from a handful of elements up
   to more than two bitset words (63 bits each) of elements or sets,
   with weights drawn from {1, 2} (heavy ties), from a continuum, or all
   equal, and sets that often extend an earlier set (row dominance) or
   copy another set's elements (column dominance); or, one time in
   four, a decline-shaped [chain_problem]. *)
let presolve_problem seed =
  let module Sm = Cdw_util.Splitmix in
  let rng = Sm.create seed in
  if Sm.int rng 4 = 0 then chain_problem rng
  else
  let size () =
    if Sm.int rng 3 = 0 then 64 + Sm.int rng 80 else 1 + Sm.int rng 12
  in
  let n = size () in
  let m = size () in
  let weights =
    match Sm.int rng 3 with
    | 0 -> Array.init n (fun _ -> float_of_int (1 + Sm.int rng 2))
    | 1 -> Array.init n (fun _ -> Sm.float rng 10.0)
    | _ -> Array.make n 1.0
  in
  let random_set () =
    let k = 1 + Sm.int rng (min n 6) in
    Array.init k (fun _ -> Sm.int rng n)
  in
  let sets = Array.make m [||] in
  for i = 0 to m - 1 do
    sets.(i) <-
      (if i > 0 && Sm.int rng 3 = 0 then
         Array.append sets.(Sm.int rng i) (random_set ())
       else random_set ())
  done;
  let sets =
    Array.map
      (fun s -> Array.of_list (List.sort_uniq compare (Array.to_list s)))
      sets
  in
  problem ~weights ~sets

let prop_presolve_matches_reference =
  Test_helpers.qcheck ~count:800
    "presolve = reference presolve (same reduced problem, kept, forced)"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let p = presolve_problem seed in
      Hs.presolve p = Presolve_reference.presolve p)

(* Covering instances where ties are common: weights from {1, 2, 3}, a
   continuum, or {0, 1}, and sets of one to four random elements. *)
let tie_problem seed =
  let module Sm = Cdw_util.Splitmix in
  let rng = Sm.create seed in
  let n = 1 + Sm.int rng 10 in
  let m = 1 + Sm.int rng 10 in
  let weights =
    match Sm.int rng 3 with
    | 0 -> Array.init n (fun _ -> float_of_int (1 + Sm.int rng 3))
    | 1 -> Array.init n (fun _ -> Sm.float rng 10.0)
    | _ -> Array.init n (fun _ -> float_of_int (Sm.int rng 2))
  in
  let sets =
    Array.init m (fun _ ->
        Array.init (1 + Sm.int rng (min n 4)) (fun _ -> Sm.int rng n)
        |> Array.to_list |> List.sort_uniq compare |> Array.of_list)
  in
  problem ~weights ~sets

let prop_certificate_is_the_optimum =
  Test_helpers.qcheck ~count:400
    "fast path: a certified set is B&B's; solve_ilp's cost is B&B's"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let p = tie_problem seed in
      let bnb = Hs.solve_bnb p in
      (match fast p with Some x -> x = bnb | None -> true)
      && Float.abs (Hs.cost p (Hs.solve_ilp p) -. Hs.cost p bnb) < 1e-9)

(* The property above would hold vacuously if the fast path always
   declined, or never did: on the same family it must do both. *)
let test_certificate_answers_and_declines () =
  let answers = ref 0 in
  for seed = 0 to 199 do
    if fast (tie_problem seed) <> None then incr answers
  done;
  if !answers = 0 || !answers = 200 then
    Alcotest.failf "fast path answered %d of 200 instances" !answers

let test_certificate_declines_duplicate_columns () =
  let p = problem ~weights:[| 2.0; 2.0 |] ~sets:[| [| 0; 1 |] |] in
  Alcotest.(check (option (array bool))) "tie declined" None (fast p);
  check_float "solve_ilp still optimal" 2.0 (Hs.cost p (Hs.solve_ilp p))

let test_certificate_declines_fractional_root () =
  (* The LP optimum is x = 1/2 everywhere (cost 1.5); every cover needs
     two elements. *)
  let p =
    problem ~weights:[| 1.0; 1.0; 1.0 |]
      ~sets:[| [| 0; 1 |]; [| 1; 2 |]; [| 0; 2 |] |]
  in
  Alcotest.(check (option (array bool))) "fractional root declined" None
    (fast p);
  let x = Hs.solve_ilp p in
  Alcotest.(check bool) "solve_ilp covers" true (Hs.covers p x);
  check_float "solve_ilp exact" 2.0 (Hs.cost p x)

let test_certificate_past_deadline () =
  let p = problem ~weights:[| 1.0; 2.0 |] ~sets:[| [| 0; 1 |] |] in
  Alcotest.check_raises "timeout" Cdw_util.Timing.Timeout (fun () ->
      ignore
        (Cdw_lp.Simplex.solve_cover_unique
           ~deadline:(Cdw_util.Timing.now_ms () -. 1.0)
           ~weights:p.Hs.weights p.Hs.sets))

(* The warm state against the cold solvers. A program arrives in one to
   four batches; every batch after the first brings new elements, and
   its sets draw on old and new ones alike. After each batch, on the
   whole program so far: a certified warm answer is [solve_ilp]'s;
   warm-plus-fallback ([solve_pool_ilp]) is [solve_ilp]'s too, and so
   the cold certificate's set whenever that one answers. *)
let batched_program seed =
  let module Sm = Cdw_util.Splitmix in
  let rng = Sm.create seed in
  let n_batches = 1 + Sm.int rng 4 in
  let n = n_batches + Sm.int rng 10 in
  let weights =
    match Sm.int rng 3 with
    | 0 -> Array.init n (fun _ -> float_of_int (1 + Sm.int rng 3))
    | 1 -> Array.init n (fun _ -> Sm.float rng 10.0)
    | _ -> Array.init n (fun _ -> float_of_int (Sm.int rng 2))
  in
  (* Batch k brings elements [k * n / n_batches, (k+1) * n / n_batches). *)
  let batches =
    List.init n_batches (fun k ->
        let hi = (k + 1) * n / n_batches in
        let sets =
          Array.init (1 + Sm.int rng 4) (fun _ ->
              Array.init (1 + Sm.int rng (min hi 4)) (fun _ -> Sm.int rng hi)
              |> Array.to_list |> List.sort_uniq compare |> Array.of_list)
        in
        ((k * n / n_batches, hi), sets))
  in
  (weights, batches)

let prop_warm_state_matches_cold =
  Test_helpers.qcheck ~count:1_000
    "warm state: every batch's answer is solve_ilp's and the cold certificate's"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let weights, batches = batched_program seed in
      let warm = Cdw_lp.Simplex.cover_create () in
      let pool = Hs.create_pool () in
      let sets = ref [||] in
      List.for_all
        (fun ((lo, hi), batch) ->
          for e = lo to hi - 1 do
            Cdw_lp.Simplex.cover_add_column warm weights.(e);
            Hs.add_elem pool weights.(e)
          done;
          Array.iter
            (fun set ->
              Cdw_lp.Simplex.cover_add_row warm set;
              Hs.add_set pool set)
            batch;
          sets := Array.append !sets batch;
          let p = problem ~weights:(Array.sub weights 0 hi) ~sets:!sets in
          let cold = Hs.solve_ilp p in
          let answer = Hs.solve_pool_ilp pool in
          (match Cdw_lp.Simplex.cover_solve warm with
          | Some x -> x = cold
          | None -> true)
          && answer = cold
          && match fast p with Some y -> answer = y | None -> true)
        batches)

(* The decline path as it stood before its kernels were rewritten:
   the frozen presolve, then the frozen primal [Ilp] on the covering
   program of what is left. *)
let reference_decline (p : Hs.problem) =
  let info = Presolve_reference.presolve p in
  let q = info.Hs.reduced in
  let chosen = Array.make p.Hs.n_elems false in
  List.iter (fun e -> chosen.(e) <- true) info.Hs.forced;
  (if Array.length q.Hs.sets > 0 then
     let constraints =
       Array.to_list
         (Array.map
            (fun s ->
              let a = Array.make q.Hs.n_elems 0.0 in
              Array.iter (fun e -> a.(e) <- 1.0) s;
              (a, Cdw_lp.Simplex.Ge, 1.0))
            q.Hs.sets)
     in
     match
       Primal_reference.solve_ilp
         { Cdw_lp.Simplex.objective = Array.copy q.Hs.weights; constraints }
     with
     | Cdw_lp.Ilp.Optimal { x; _ } ->
         Array.iteri (fun k b -> if b then chosen.(info.Hs.kept_elems.(k)) <- true) x
     | Cdw_lp.Ilp.Infeasible -> assert false);
  chosen

(* Tied programs with a fractional or tied LP core that presolve leaves
   standing: 20 to 40 elements of weight 1, 2 or 3 and 10 to 24 sets of
   two to five, so [Ilp] branches and its primal pivots. Their tableaux
   stay under the minor heap's size limit, so per-pivot allocation shows
   in the minor words. *)
let tied_program seed =
  let module Sm = Cdw_util.Splitmix in
  let rng = Sm.create seed in
  let n = 20 + Sm.int rng 21 in
  let m = 10 + Sm.int rng 15 in
  let weights = Array.init n (fun _ -> float_of_int (1 + Sm.int rng 3)) in
  let sets =
    Array.init m (fun _ ->
        Array.init (2 + Sm.int rng 4) (fun _ -> Sm.int rng n)
        |> Array.to_list |> List.sort_uniq compare |> Array.of_list)
  in
  problem ~weights ~sets

(* The decline-path work gate: a fixed script of the programs among
   [chain_problem] seeds 0–199 and [tied_program] seeds 0–199 that the
   certificate declines, so each [solve_ilp] runs presolve + [Ilp].
   Both counts are exact (pivots are integers; the words depend on
   neither the host nor the clock, and nothing here traces). The
   primal's pivots must equal the frozen reference path's, pivot for
   pivot the same search, and the minor words per decline stay within
   the measured value plus 5%. Every answer must be the reference
   path's. *)
let decline_words_bound = 5619.0

let test_decline_work_gate () =
  let script =
    List.filter
      (fun p -> fast p = None)
      (List.init 200 (fun seed -> chain_problem (Cdw_util.Splitmix.create seed))
      @ List.init 200 tied_program)
  in
  let n = List.length script in
  let before = !Primal_reference.pivots in
  let expected = List.map reference_decline script in
  let reference = !Primal_reference.pivots - before in
  let before = Cdw_lp.Simplex.primal_pivots () in
  let answers = List.map Hs.solve_ilp script in
  let pivots = Cdw_lp.Simplex.primal_pivots () - before in
  let minor0 = Gc.minor_words () in
  List.iter (fun p -> ignore (Hs.solve_ilp p)) script;
  let words = (Gc.minor_words () -. minor0) /. float_of_int n in
  Printf.printf "decline gate: %d declines, %d pivots (reference %d), %.1f words per decline\n"
    n pivots reference words;
  Alcotest.(check int) "answers unlike the reference path's" 0
    (List.length (List.filter not (List.map2 ( = ) answers expected)));
  Alcotest.(check int) "primal pivots, the reference's" reference pivots;
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per decline, bound %.1f" words
       decline_words_bound)
    true (words <= decline_words_bound)

let suite =
  [
    Alcotest.test_case "single set: cheapest element" `Quick test_single_set;
    Alcotest.test_case "hub element beats singletons" `Quick
      test_overlap_beats_singletons;
    Alcotest.test_case "greedy covers (possibly suboptimally)" `Quick
      test_greedy_can_be_suboptimal_but_covers;
    Alcotest.test_case "empty set rejected" `Quick test_empty_set_rejected;
    Alcotest.test_case "no sets: empty solution" `Quick test_no_sets;
    prop_solvers_agree;
    Alcotest.test_case "presolve: singleton forcing" `Quick
      test_presolve_singleton_forces;
    Alcotest.test_case "presolve: row dominance" `Quick
      test_presolve_row_dominance;
    Alcotest.test_case "presolve: column dominance" `Quick
      test_presolve_column_dominance;
    prop_presolve_preserves_optimum;
    prop_presolve_matches_reference;
    prop_certificate_is_the_optimum;
    prop_warm_state_matches_cold;
    Alcotest.test_case "fast path answers and declines on ties" `Quick
      test_certificate_answers_and_declines;
    Alcotest.test_case "fast path: duplicate columns decline" `Quick
      test_certificate_declines_duplicate_columns;
    Alcotest.test_case "fast path: fractional root declines" `Quick
      test_certificate_declines_fractional_root;
    Alcotest.test_case "fast path: past deadline raises Timeout" `Quick
      test_certificate_past_deadline;
    Alcotest.test_case "decline path: pivots and words of a fixed script stay bounded"
      `Quick test_decline_work_gate;
  ]
