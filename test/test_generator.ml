open Cdw_workload
module Workflow = Cdw_core.Workflow
module Constraint_set = Cdw_core.Constraint_set
module Digraph = Cdw_graph.Digraph
module Reach = Cdw_graph.Reach

let test_stage_widths_nu () =
  let p = Gen_params.dataset1a ~n_constraints:10 in
  let widths = Gen_params.stage_widths p in
  Alcotest.(check (array int)) "paper's NU split of 100" [| 50; 25; 10; 10; 5 |]
    widths

let test_stage_widths_uniform () =
  let p = Gen_params.dataset1c ~n_constraints:10 in
  Alcotest.(check (array int)) "uniform split of 100" [| 20; 20; 20; 20; 20 |]
    (Gen_params.stage_widths p)

let test_stage_widths_sum () =
  let p = { (Gen_params.dataset1a ~n_constraints:1) with Gen_params.n_vertices = 97 } in
  Alcotest.(check int) "widths sum to |V|" 97
    (Array.fold_left ( + ) 0 (Gen_params.stage_widths p))

let test_validate_params () =
  let bad k p = match Gen_params.validate p with
    | Error _ -> ()
    | Ok () -> Alcotest.failf "expected %s to be rejected" k
  in
  bad "stages < 2" { Gen_params.default with Gen_params.stages = 1 };
  bad "density > 1" { Gen_params.default with Gen_params.density = 1.5 };
  bad "too few vertices" { Gen_params.default with Gen_params.n_vertices = 3 };
  bad "bad range" { Gen_params.default with Gen_params.value_lo = 10; value_hi = 5 }

let check_instance (instance : Generator.t) p =
  let wf = instance.Generator.workflow in
  (* Model invariants hold. *)
  (match Workflow.validate wf with
  | Ok () -> ()
  | Error errs -> Alcotest.failf "invalid workflow: %s" (List.hd errs));
  Alcotest.(check int) "vertex count" p.Gen_params.n_vertices
    (Workflow.n_vertices wf);
  Alcotest.(check int) "constraint count" p.Gen_params.n_constraints
    (Constraint_set.size instance.Generator.constraints);
  (* Every constraint is connected, between a user and a purpose. *)
  let g = Workflow.graph wf in
  List.iter
    (fun { Constraint_set.source; target } ->
      Alcotest.(check bool) "source is user" true
        (Workflow.kind wf source = Workflow.User);
      Alcotest.(check bool) "target is purpose" true
        (Workflow.kind wf target = Workflow.Purpose);
      Alcotest.(check bool) "pair connected" true (Reach.exists_path g source target))
    instance.Generator.constraints;
  (* Edges only go from one stage to the next. *)
  let stage_of = Array.make (Workflow.n_vertices wf) (-1) in
  Array.iteri
    (fun s vs -> Array.iter (fun v -> stage_of.(v) <- s) vs)
    instance.Generator.stages;
  Digraph.iter_edges
    (fun e ->
      Alcotest.(check int) "edge spans one stage"
        (stage_of.(Digraph.edge_src e) + 1)
        stage_of.(Digraph.edge_dst e))
    g

let test_dataset1a_instance () =
  let p = Gen_params.dataset1a ~n_constraints:10 in
  check_instance (Generator.generate ~seed:11 p) p

let test_dataset1c_density () =
  let p = Gen_params.dataset1c ~n_constraints:10 in
  let instance = Generator.generate ~seed:12 p in
  check_instance instance p;
  (* At least d of all consecutive-stage pairs must be edges. *)
  let g = Workflow.graph instance.Generator.workflow in
  let stages = instance.Generator.stages in
  for s = 0 to Array.length stages - 2 do
    let pairs = Array.length stages.(s) * Array.length stages.(s + 1) in
    let count = ref 0 in
    Array.iter
      (fun u ->
        Array.iter
          (fun v -> if Digraph.find_edge g u v <> None then incr count)
          stages.(s + 1))
      stages.(s);
    if float_of_int !count < 0.2 *. float_of_int pairs then
      Alcotest.failf "stage %d density %d/%d below 20%%" s !count pairs
  done

let test_determinism () =
  let p = Gen_params.dataset1a ~n_constraints:5 in
  let a = Generator.generate ~seed:7 p and b = Generator.generate ~seed:7 p in
  Alcotest.(check string) "same seed, identical instance"
    (Cdw_core.Serialize.to_string ~constraints:a.Generator.constraints
       a.Generator.workflow)
    (Cdw_core.Serialize.to_string ~constraints:b.Generator.constraints
       b.Generator.workflow);
  let c = Generator.generate ~seed:8 p in
  Alcotest.(check bool) "different seed differs" true
    (Cdw_core.Serialize.to_string a.Generator.workflow
    <> Cdw_core.Serialize.to_string c.Generator.workflow)

let test_initial_values_in_range () =
  let p = Gen_params.dataset1a ~n_constraints:5 in
  let instance = Generator.generate ~seed:3 p in
  let wf = instance.Generator.workflow in
  let g = Workflow.graph wf in
  Digraph.iter_edges
    (fun e ->
      if Workflow.kind wf (Digraph.edge_src e) = Workflow.User then begin
        let v = Workflow.initial_value wf e in
        if v < 1.0 || v > 100.0 || Float.rem v 1.0 <> 0.0 then
          Alcotest.failf "initial value %f outside integer range 1-100" v
      end)
    g

let test_too_many_constraints_rejected () =
  let p =
    { (Gen_params.dataset1a ~n_constraints:100000) with Gen_params.n_vertices = 20 }
  in
  Alcotest.(check bool) "raises" true
    (match Generator.generate ~seed:1 p with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_path_statistics () =
  let p = Gen_params.dataset1a ~n_constraints:5 in
  let instance = Generator.generate ~seed:21 p in
  let n = Generator.n_constraint_paths instance in
  Alcotest.(check bool) "at least one path per constraint" true (n >= 5);
  let len = Generator.mean_constraint_path_length instance in
  (* k = 5 stages means every path has exactly 4 edges. *)
  Alcotest.(check (float 1e-9)) "paths have k-1 edges" 4.0 len

let prop_generated_valid =
  Test_helpers.qcheck ~count:40 "random parameterisations generate valid instances"
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let instance = Test_helpers.random_instance ~seed in
      Workflow.validate instance.Generator.workflow = Ok ()
      && Cdw_graph.Topo.is_dag (Workflow.graph instance.Generator.workflow)
      && List.for_all
           (fun { Constraint_set.source; target } ->
             Reach.exists_path
               (Workflow.graph instance.Generator.workflow)
               source target)
           instance.Generator.constraints)

(* Dataset 2: subdivision preserves the path count and grows length. *)
let test_dataset2_lengthen () =
  let base = Dataset2.base ~seed:5 () in
  let before_paths = Generator.n_constraint_paths base in
  let before_len = Generator.mean_constraint_path_length base in
  let before_vertices = Workflow.n_vertices base.Generator.workflow in
  let longer = Dataset2.lengthen ~seed:6 base ~added:50 in
  Alcotest.(check int) "50 vertices added" (before_vertices + 50)
    (Workflow.n_vertices longer.Generator.workflow);
  Alcotest.(check int) "path count preserved" before_paths
    (Generator.n_constraint_paths longer);
  Alcotest.(check bool) "mean length grew" true
    (Generator.mean_constraint_path_length longer > before_len);
  Alcotest.(check int) "base untouched" before_vertices
    (Workflow.n_vertices base.Generator.workflow)

let test_dataset2_steps () =
  let steps = Dataset2.steps ~seed:4 ~n_steps:3 () in
  Alcotest.(check int) "base + 3 steps" 4 (List.length steps);
  let sizes =
    List.map (fun (i : Generator.t) -> Workflow.n_vertices i.Generator.workflow) steps
  in
  Alcotest.(check (list int)) "sizes grow by 50" [ 150; 200; 250; 300 ] sizes;
  let counts = List.map Generator.n_constraint_paths steps in
  match counts with
  | first :: rest ->
      List.iter (fun c -> Alcotest.(check int) "constant path count" first c) rest
  | [] -> Alcotest.fail "no steps"

let suite =
  [
    Alcotest.test_case "NU stage widths (Table 2)" `Quick test_stage_widths_nu;
    Alcotest.test_case "uniform stage widths" `Quick test_stage_widths_uniform;
    Alcotest.test_case "widths sum to |V|" `Quick test_stage_widths_sum;
    Alcotest.test_case "parameter validation" `Quick test_validate_params;
    Alcotest.test_case "dataset 1a instance" `Quick test_dataset1a_instance;
    Alcotest.test_case "dataset 1c density ≥ 20%" `Quick test_dataset1c_density;
    Alcotest.test_case "deterministic by seed" `Quick test_determinism;
    Alcotest.test_case "initial values are integers in 1–100" `Quick
      test_initial_values_in_range;
    Alcotest.test_case "unsatisfiable constraint counts rejected" `Quick
      test_too_many_constraints_rejected;
    Alcotest.test_case "path statistics" `Quick test_path_statistics;
    prop_generated_valid;
    Alcotest.test_case "dataset 2 lengthen: paths constant, length grows" `Quick
      test_dataset2_lengthen;
    Alcotest.test_case "dataset 2 step series" `Quick test_dataset2_steps;
  ]
