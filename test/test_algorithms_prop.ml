(* Property tests for the solving algorithms on generated instances. *)

open Cdw_core
module Generator = Cdw_workload.Generator

let small_instance seed =
  (* Keep brute force tractable: few constraints, small sparse graphs. *)
  let rng = Cdw_util.Splitmix.create seed in
  let params =
    {
      Cdw_workload.Gen_params.default with
      Cdw_workload.Gen_params.n_vertices = 15 + Cdw_util.Splitmix.int rng 20;
      n_constraints = 1 + Cdw_util.Splitmix.int rng 3;
      stages = 3 + Cdw_util.Splitmix.int rng 2;
      density = 0.0;
    }
  in
  Generator.generate ~seed params

let prop_all_feasible =
  Test_helpers.qcheck ~count:50 "every algorithm yields a consented workflow"
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let i = small_instance seed in
      let wf = i.Generator.workflow and cs = i.Generator.constraints in
      List.for_all
        (fun name ->
          let o = Algorithms.solve name wf cs in
          Constraint_set.satisfied o.Algorithms.workflow cs)
        Algorithms.all_names)

let prop_brute_force_dominates =
  Test_helpers.qcheck ~count:40 "brute force dominates every heuristic"
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let i = small_instance seed in
      let wf = i.Generator.workflow and cs = i.Generator.constraints in
      let best = Algorithms.brute_force wf cs in
      List.for_all
        (fun name ->
          let o = Algorithms.solve name wf cs in
          o.Algorithms.utility_after
          <= best.Algorithms.utility_after +. 1e-6)
        [
          Algorithms.Remove_random_edge;
          Algorithms.Remove_first_edge;
          Algorithms.Remove_last_edge;
          Algorithms.Remove_min_cuts;
          Algorithms.Remove_min_mc;
        ])

let prop_bnb_matches_brute_force =
  Test_helpers.qcheck ~count:40 "branch-and-bound equals exhaustive optimum"
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let i = small_instance seed in
      let wf = i.Generator.workflow and cs = i.Generator.constraints in
      let bf = Algorithms.brute_force wf cs in
      let bnb = Algorithms.solve Algorithms.Brute_force_bnb wf cs in
      Float.abs (bf.Algorithms.utility_after -. bnb.Algorithms.utility_after)
      < 1e-6
      && bnb.Algorithms.candidates <= max 1 bf.Algorithms.candidates)

let prop_utility_never_increases =
  Test_helpers.qcheck ~count:50 "removals never increase utility"
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let i = small_instance seed in
      let wf = i.Generator.workflow and cs = i.Generator.constraints in
      List.for_all
        (fun name ->
          let o = Algorithms.solve name wf cs in
          o.Algorithms.utility_after <= o.Algorithms.utility_before +. 1e-9
          && o.Algorithms.utility_after >= 0.0)
        Algorithms.all_names)

let prop_input_untouched =
  Test_helpers.qcheck ~count:30 "solvers never mutate their input"
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let i = small_instance seed in
      let wf = i.Generator.workflow and cs = i.Generator.constraints in
      let g = Workflow.graph wf in
      let before = Test_helpers.live_edge_ids g in
      List.for_all
        (fun name ->
          ignore (Algorithms.solve name wf cs);
          Test_helpers.live_edge_ids g = before)
        Algorithms.all_names)

let prop_removed_edges_belong_to_copy =
  Test_helpers.qcheck ~count:30 "outcome.removed lists exactly the copy's removals"
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let i = small_instance seed in
      let wf = i.Generator.workflow and cs = i.Generator.constraints in
      let o = Algorithms.remove_min_mc wf cs in
      let g' = Workflow.graph o.Algorithms.workflow in
      let removed_ids =
        List.sort compare (List.map Cdw_graph.Digraph.edge_id o.Algorithms.removed)
      in
      removed_ids = Cdw_graph.Digraph.removed_edge_ids g')

let prop_exact_schemes_equal_on_trees =
  (* On path-unique (tree-shaped below each vertex) graphs both weight
     schemes coincide; check on sparse generated instances where the
     repair step creates few extra paths. *)
  Test_helpers.qcheck ~count:30 "weight schemes agree on single-path instances"
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let i = small_instance seed in
      let wf = i.Generator.workflow in
      let reach = Utility.cut_weights ~scheme:Utility.Reachability_mass wf in
      let path = Utility.cut_weights ~scheme:Utility.Path_count_mass wf in
      (* Path-count weights always dominate reachability weights. *)
      Array.for_all2 (fun p r -> p >= r -. 1e-9) path reach)

let suite =
  [
    prop_all_feasible;
    prop_brute_force_dominates;
    prop_bnb_matches_brute_force;
    prop_utility_never_increases;
    prop_input_untouched;
    prop_removed_edges_belong_to_copy;
    prop_exact_schemes_equal_on_trees;
  ]
