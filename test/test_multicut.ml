module Digraph = Cdw_graph.Digraph
module Reach = Cdw_graph.Reach
module Multicut = Cdw_cut.Multicut

let check_float = Alcotest.(check (float 1e-6))

let unit_weight _ = 1.0

(* Fig. 4 of the paper as a pure multicut instance. *)
let fig4 () =
  let g = Digraph.create () in
  ignore (Digraph.add_vertices g 5);
  (* 0=s1 1=s2 2=v1 3=t1 4=t2 *)
  ignore (Digraph.add_edge g 0 2);
  ignore (Digraph.add_edge g 1 2);
  ignore (Digraph.add_edge g 2 3);
  ignore (Digraph.add_edge g 2 4);
  g

let test_single_pair_is_min_cut () =
  let g = fig4 () in
  let weight e =
    match (Digraph.edge_src e, Digraph.edge_dst e) with
    | 0, 2 -> 10.0
    | _ -> 3.0
  in
  let r = Multicut.solve g ~weight ~pairs:[ (0, 3) ] in
  check_float "weight" 3.0 r.Multicut.weight;
  Alcotest.(check int) "one edge" 1 (List.length r.Multicut.edges);
  Alcotest.(check bool) "is a multicut" true
    (Multicut.is_multicut g r.Multicut.edges ~pairs:[ (0, 3) ])

let test_shared_edge_two_pairs () =
  let g = fig4 () in
  (* Cutting (s1,v1) once (weight 5) beats cutting both out-edges (2×3). *)
  let weight e =
    match (Digraph.edge_src e, Digraph.edge_dst e) with
    | 0, 2 -> 5.0
    | _ -> 3.0
  in
  let r = Multicut.solve g ~weight ~pairs:[ (0, 3); (0, 4) ] in
  check_float "weight" 5.0 r.Multicut.weight;
  Alcotest.(check (list (pair int int))) "the shared edge"
    [ (0, 2) ]
    (List.map (fun e -> (Digraph.edge_src e, Digraph.edge_dst e)) r.Multicut.edges)

let test_already_disconnected () =
  let g = fig4 () in
  let r = Multicut.solve g ~weight:unit_weight ~pairs:[ (3, 0) ] in
  Alcotest.(check int) "empty cut" 0 (List.length r.Multicut.edges);
  Alcotest.(check int) "zero rounds" 0 r.Multicut.rounds

let test_graph_not_mutated () =
  let g = fig4 () in
  let before = Test_helpers.live_edge_ids g in
  ignore (Multicut.solve g ~weight:unit_weight ~pairs:[ (0, 3); (1, 4) ]);
  Alcotest.(check (list int)) "graph untouched" before (Test_helpers.live_edge_ids g)

let test_invalid_pair () =
  let g = fig4 () in
  Alcotest.check_raises "s = t" (Invalid_argument "Multicut.solve: pair with s = t")
    (fun () -> ignore (Multicut.solve g ~weight:unit_weight ~pairs:[ (2, 2) ]))

let random_pairs rng g k =
  let n = Digraph.n_vertices g in
  List.init k (fun _ ->
      let s = Cdw_util.Splitmix.int rng (n - 1) in
      let t = s + 1 + Cdw_util.Splitmix.int rng (n - s - 1) in
      (s, t))

let weight_of_seed seed e =
  float_of_int (1 + (Hashtbl.hash (seed, Digraph.edge_id e) mod 9))

let prop_backends =
  Test_helpers.qcheck ~count:60
    "all backends feasible; exact backends agree and dominate"
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let rng = Cdw_util.Splitmix.create seed in
      let n = 5 + Cdw_util.Splitmix.int rng 10 in
      let g = Test_helpers.random_dag ~seed ~n ~density:0.3 in
      let pairs = random_pairs rng g (1 + Cdw_util.Splitmix.int rng 3) in
      let weight = weight_of_seed seed in
      let solve backend = Multicut.solve ~backend g ~weight ~pairs in
      let ilp = solve Multicut.Ilp in
      let bnb = solve Multicut.Bnb in
      let greedy = solve Multicut.Greedy in
      let lp = solve Multicut.Lp_rounding in
      List.for_all
        (fun r -> Multicut.is_multicut g r.Multicut.edges ~pairs)
        [ ilp; bnb; greedy; lp ]
      && Float.abs (ilp.Multicut.weight -. bnb.Multicut.weight) < 1e-6
      && ilp.Multicut.weight <= greedy.Multicut.weight +. 1e-6
      && ilp.Multicut.weight <= lp.Multicut.weight +. 1e-6
      && ilp.Multicut.exact && bnb.Multicut.exact
      && (not greedy.Multicut.exact)
      && not lp.Multicut.exact)

(* The audit trail every backend reports, held against the exact
   optimum: the lower bound never exceeds it and the weight never
   exceeds the claimed ratio times it; an exact cut's ratio is 1 and its
   bound is its own weight; and the lazy loop records one violated
   count per round plus a final 0. *)
let prop_audit_trail =
  Test_helpers.qcheck ~count:60 "every backend's audit trail holds"
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let rng = Cdw_util.Splitmix.create seed in
      let n = 5 + Cdw_util.Splitmix.int rng 10 in
      let g = Test_helpers.random_dag ~seed ~n ~density:0.3 in
      let pairs = random_pairs rng g (1 + Cdw_util.Splitmix.int rng 3) in
      let weight = weight_of_seed seed in
      let solve backend = Multicut.solve ~backend g ~weight ~pairs in
      let optimum = (solve Multicut.Ilp).Multicut.weight in
      let eps = 1e-6 in
      List.for_all
        (fun backend ->
          let r = solve backend in
          let violated = r.Multicut.violated in
          let rec counts_ok = function
            | [] -> false
            | [ last ] -> last = 0
            | v :: rest -> v >= 1 && counts_ok rest
          in
          r.Multicut.lower_bound <= optimum +. eps
          && r.Multicut.weight <= (r.Multicut.ratio *. optimum) +. eps
          && r.Multicut.ratio >= 1.0
          && List.length violated = r.Multicut.rounds + 1
          && counts_ok violated
          && ((not r.Multicut.exact)
             || r.Multicut.ratio = 1.0
                && Float.abs (r.Multicut.lower_bound -. r.Multicut.weight)
                   < eps))
        [ Multicut.Ilp; Multicut.Bnb; Multicut.Greedy; Multicut.Lp_rounding ])

(* Exactness cross-check against explicit enumeration of all edge
   subsets on tiny graphs. *)
let prop_exact_vs_enumeration =
  Test_helpers.qcheck ~count:40 "ILP backend matches subset enumeration"
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let rng = Cdw_util.Splitmix.create seed in
      let n = 4 + Cdw_util.Splitmix.int rng 3 in
      let g = Test_helpers.random_dag ~seed ~n ~density:0.4 in
      let m = Digraph.n_edges_total g in
      if m > 12 then true (* keep enumeration cheap *)
      else begin
        let pairs = random_pairs rng g 2 in
        let weight = weight_of_seed seed in
        let best = ref infinity in
        for mask = 0 to (1 lsl m) - 1 do
          let edges =
            List.filter_map
              (fun id ->
                if mask land (1 lsl id) <> 0 then Some (Digraph.edge g id)
                else None)
              (List.init m Fun.id)
          in
          if Multicut.is_multicut g edges ~pairs then begin
            let w = List.fold_left (fun acc e -> acc +. weight e) 0.0 edges in
            if w < !best then best := w
          end
        done;
        let r = Multicut.solve g ~weight ~pairs in
        Float.abs (r.Multicut.weight -. !best) < 1e-6
      end)

(* The budget is decided before any set-up, so a budgeted solve that
   does not run out reads each weight exactly as often as the
   unbudgeted one. *)
let test_budget_reads_weights_once () =
  List.iter
    (fun seed ->
      let g = Test_helpers.random_dag ~seed ~n:14 ~density:0.35 in
      let pairs = [ (0, 13); (1, 12); (2, 11) ] in
      let calls = ref 0 in
      let weight e =
        incr calls;
        1.0 +. float_of_int (Digraph.edge_id e mod 7)
      in
      let plain = Multicut.solve g ~weight ~pairs in
      let unbudgeted = !calls in
      calls := 0;
      let budgeted = Multicut.solve ~budget_ms:60_000.0 g ~weight ~pairs in
      Alcotest.(check bool) "did not fall back" false budgeted.Multicut.fell_back;
      Alcotest.(check (list int)) "same cut"
        (Test_helpers.edge_ids plain.Multicut.edges)
        (Test_helpers.edge_ids budgeted.Multicut.edges);
      Alcotest.(check int)
        (Printf.sprintf "seed %d: weight calls" seed)
        unbudgeted !calls)
    [ 1; 2; 3; 4 ]

(* ---- The warm lazy loop against the frozen cold one ---- *)

module Reference = Multicut_reference
module Generator = Cdw_workload.Generator
module Gen_params = Cdw_workload.Gen_params
module Workflow = Cdw_core.Workflow

(* [Multicut.solve] with the [Ilp] backend, unbudgeted and under a
   budget it does not exhaust, returns the reference loop's edges in
   order, its rounds and its violated counts. *)
let same_as (reference : Reference.result) (r : Multicut.result) =
  (not r.Multicut.fell_back)
  && List.map Digraph.edge_id r.Multicut.edges
     = List.map Digraph.edge_id reference.Reference.edges
  && r.Multicut.rounds = reference.Reference.rounds
  && r.Multicut.violated = reference.Reference.violated

let matches_reference g ~weight ~pairs =
  let reference = Reference.solve g ~weight ~pairs in
  same_as reference (Multicut.solve g ~weight ~pairs)
  && same_as reference (Multicut.solve ~budget_ms:60_000.0 g ~weight ~pairs)

let prop_matches_reference_random_dags =
  Test_helpers.qcheck ~count:300 "Ilp: random DAGs match the cold reference loop"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Cdw_util.Splitmix.create seed in
      let n = 5 + Cdw_util.Splitmix.int rng 36 in
      let density = 0.1 +. Cdw_util.Splitmix.float rng 0.3 in
      let g = Test_helpers.random_dag ~seed ~n ~density in
      let pairs = random_pairs rng g (1 + Cdw_util.Splitmix.int rng 6) in
      (* Integer weights tie often, so the fallback runs too. *)
      let weight =
        if seed mod 2 = 0 then weight_of_seed seed
        else fun e ->
          0.5 +. float_of_int (Hashtbl.hash (seed, Digraph.edge_id e) mod 1000)
      in
      matches_reference g ~weight ~pairs)

(* perfbench [minmc-dense]'s base: generator seed 42, 100 vertices,
   k = 5, d = 0.15, with its cut weights. *)
let minmc_dense_base =
  lazy
    (let wf =
       (Generator.generate ~seed:42
          {
            Gen_params.default with
            Gen_params.n_vertices = 100;
            n_constraints = 0;
            stages = 5;
            density = 0.15;
          })
         .Generator.workflow
     in
     let w = Cdw_core.Utility.cut_weights wf in
     (Workflow.graph wf, (fun e -> w.(Digraph.edge_id e)),
      Cdw_engine.Workbench.connected_pairs wf))

(* [count] pair sets of 1–6 connected pairs, from one fixed stream. *)
let minmc_dense_pair_sets count =
  let _, _, connected = Lazy.force minmc_dense_base in
  let rng = Cdw_util.Splitmix.create 42 in
  List.init count (fun _ ->
      List.init
        (1 + Cdw_util.Splitmix.int rng 6)
        (fun _ -> connected.(Cdw_util.Splitmix.int rng (Array.length connected))))

(* Every instance matches, and the warm loop falls back on no more
   rounds than the reference's cold solves decline. A certified answer
   is right whatever basis it was read at, so a tableau that went wrong
   shows as declines the fallback then answers correctly: the decline
   count is what catches it. *)
let check_no_mismatch name instances =
  let declines f =
    let before = Cdw_lp.Simplex.cover_declines () in
    let x = f () in
    (x, Cdw_lp.Simplex.cover_declines () - before)
  in
  let references, cold =
    declines (fun () ->
        List.map
          (fun (g, weight, pairs) -> Reference.solve g ~weight ~pairs)
          instances)
  in
  let unbudgeted, warm =
    declines (fun () ->
        List.map
          (fun (g, weight, pairs) -> Multicut.solve g ~weight ~pairs)
          instances)
  in
  let budgeted =
    List.map
      (fun (g, weight, pairs) ->
        Multicut.solve ~budget_ms:60_000.0 g ~weight ~pairs)
      instances
  in
  let mismatches =
    List.length
      (List.filter not
         (List.map2 same_as references unbudgeted
         @ List.map2 same_as references budgeted))
  in
  Alcotest.(check int)
    (Printf.sprintf "%s: mismatches of %d" name (2 * List.length instances))
    0 mismatches;
  Alcotest.(check bool)
    (Printf.sprintf "%s: %d warm declines, reference %d" name warm cold)
    true (warm <= cold)

let test_minmc_dense_matches_reference () =
  let g, weight, _ = Lazy.force minmc_dense_base in
  check_no_mismatch "minmc-dense pair sets"
    (List.map (fun pairs -> (g, weight, pairs)) (minmc_dense_pair_sets 2_000))

(* Dense 1c, `cdw generate --uniform -d 0.2 --seed 7 -n 30`: its first
   k constraints for every k, the whole instance last. *)
let test_dense_1c_matches_reference () =
  let inst = Generator.generate ~seed:7 (Gen_params.dataset1c ~n_constraints:30) in
  let wf = inst.Generator.workflow in
  let w = Cdw_core.Utility.cut_weights wf in
  let weight e = w.(Digraph.edge_id e) in
  let pairs = Cdw_core.Constraint_set.pairs inst.Generator.constraints in
  check_no_mismatch "1c |N|=30 prefixes"
    (List.init (List.length pairs) (fun k ->
         (Workflow.graph wf, weight, List.filteri (fun i _ -> i <= k) pairs)))

(* The work gate: a fixed lazy script of 300 [minmc-dense] pair sets.
   Both counts are exact (pivots are integers; the words depend on
   neither the host nor the clock: the solves run unbudgeted with
   tracing off), so each bound is its measured value plus 5%. The warm
   loop's pivots must also stay at most half the cold reference's. *)
let script_pivots_bound = 2481
let script_words_per_solve_bound = 4082.0

let test_work_gate () =
  let g, weight, _ = Lazy.force minmc_dense_base in
  let script = minmc_dense_pair_sets 300 in
  let traced = Cdw_obs.Trace.enabled () in
  Cdw_obs.Trace.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Cdw_obs.Trace.set_enabled traced)
    (fun () ->
      let pivots f =
        let before = Cdw_lp.Simplex.cover_pivots () in
        f ();
        Cdw_lp.Simplex.cover_pivots () - before
      in
      let reference =
        pivots (fun () ->
            List.iter (fun pairs -> ignore (Reference.solve g ~weight ~pairs)) script)
      in
      (* One pass to warm every lazy structure, then the counted one. *)
      List.iter (fun pairs -> ignore (Multicut.solve g ~weight ~pairs)) script;
      let minor0 = Gc.minor_words () in
      let warm =
        pivots (fun () ->
            List.iter (fun pairs -> ignore (Multicut.solve g ~weight ~pairs)) script)
      in
      let words =
        (Gc.minor_words () -. minor0) /. float_of_int (List.length script)
      in
      Printf.printf "work gate: %d pivots (reference %d), %.1f words per solve\n"
        warm reference words;
      Alcotest.(check bool)
        (Printf.sprintf "%d pivots, bound %d" warm script_pivots_bound)
        true (warm <= script_pivots_bound);
      Alcotest.(check bool)
        (Printf.sprintf "%d pivots at most half the reference's %d" warm reference)
        true (2 * warm <= reference);
      Alcotest.(check bool)
        (Printf.sprintf "%.1f minor words per solve, bound %.1f" words
           script_words_per_solve_bound)
        true (words <= script_words_per_solve_bound))

let suite =
  [
    Alcotest.test_case "single pair reduces to min cut" `Quick
      test_single_pair_is_min_cut;
    Alcotest.test_case "shared edge across two pairs" `Quick
      test_shared_edge_two_pairs;
    Alcotest.test_case "already disconnected pairs" `Quick test_already_disconnected;
    Alcotest.test_case "input graph not mutated" `Quick test_graph_not_mutated;
    Alcotest.test_case "invalid pair rejected" `Quick test_invalid_pair;
    Alcotest.test_case "budgeted solve reads weights as often as unbudgeted"
      `Quick test_budget_reads_weights_once;
    prop_backends;
    prop_audit_trail;
    prop_exact_vs_enumeration;
    prop_matches_reference_random_dags;
    Alcotest.test_case "Ilp: 2,000 minmc-dense pair sets match the cold reference loop"
      `Quick test_minmc_dense_matches_reference;
    Alcotest.test_case "Ilp: dense 1c |N|=30 matches the cold reference loop"
      `Quick test_dense_1c_matches_reference;
    Alcotest.test_case "Ilp: a fixed lazy script's pivots and words stay bounded"
      `Quick test_work_gate;
  ]
