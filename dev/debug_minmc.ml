(* Scratch: reproduce the dense-graph RemoveMinMC simplex stall. *)
module Generator = Cdw_workload.Generator
module Gen_params = Cdw_workload.Gen_params
module Algorithms = Cdw_core.Algorithms
module Timing = Cdw_util.Timing

let () =
  let n = int_of_string Sys.argv.(1) in
  let seed = int_of_string Sys.argv.(2) in
  (* A named backend runs without a budget (a stuck simplex still
     falls back, and the output says so); anything else is the
     default budgeted exact solve. *)
  let backend, solver_budget_ms =
    match Sys.argv.(3) with
    | "ilp" -> (Cdw_cut.Multicut.Ilp, Some infinity)
    | "bnb" -> (Cdw_cut.Multicut.Bnb, Some infinity)
    | "greedy" -> (Cdw_cut.Multicut.Greedy, Some infinity)
    | "lp" -> (Cdw_cut.Multicut.Lp_rounding, Some infinity)
    | _ -> (Cdw_cut.Multicut.Ilp, None)
  in
  let instance =
    Generator.generate ~seed (Gen_params.dataset1c ~n_constraints:n)
  in
  Printf.printf "instance: %d vertices, %d edges, %d constraints\n%!"
    (Cdw_core.Workflow.n_vertices instance.Generator.workflow)
    (Cdw_core.Workflow.n_edges instance.Generator.workflow)
    n;
  let (o, ms) =
    Timing.time_f (fun () ->
        Algorithms.solve
          ~options:
            {
              Algorithms.Options.default with
              backend;
              solver_budget_ms;
              deadline = Timing.deadline_after_ms 60_000.0;
            }
          Algorithms.Remove_min_mc instance.Generator.workflow
          instance.Generator.constraints)
  in
  Printf.printf "done in %.1f ms, utility %.2f%%, removed %d%s\n" ms
    (Algorithms.utility_percent o)
    (List.length o.Algorithms.removed)
    (if o.Algorithms.budget_fallback then ", greedy fallback" else "")
