(* The paper's Fig. 2 social-media scenario: the user's home address may
   keep serving disaster notification, but must stop influencing product
   recommendations and targeted advertising. Compares every algorithm.

   Run with: dune exec examples/social_media.exe *)

open Cdw_core
module Catalog = Cdw_workload.Catalog

let () =
  let wf = Catalog.social_media () in
  let constraints = Catalog.social_media_constraints wf in

  Format.printf "%a@." Workflow.pp wf;
  Format.printf "Constraints: %a@.@." (Constraint_set.pp wf) constraints;
  let report = Audit.report wf constraints in
  Format.printf "@[<v>%a@]@." (Audit.pp wf) report;

  let original = Utility.total wf in
  Format.printf "%-22s %-10s %-10s %s@." "algorithm" "utility" "% kept"
    "edges removed";
  List.iter
    (fun name ->
      let outcome = Algorithms.solve name wf constraints in
      Format.printf "%-22s %-10.1f %-10.1f %d@."
        (Algorithms.to_string name)
        outcome.Algorithms.utility_after
        (Utility.percent ~original outcome.Algorithms.utility_after)
        (List.length outcome.Algorithms.removed))
    Algorithms.all_names;

  (* Show what the optimum actually does. *)
  let best = Algorithms.brute_force wf constraints in
  Format.printf "@.Optimal repair:@.@[<v>%a@]@."
    (Audit.pp_solution_diff wf) best;
  Format.printf
    "Note how disaster notification keeps its full utility: the cut@.";
  Format.printf
    "isolates the commerce purposes without touching the safety path.@.";

  (* DOT rendering for inspection. *)
  let dot = Serialize.to_dot ~constraints best.Algorithms.workflow in
  let path = Filename.temp_file "social_media" ".dot" in
  let oc = open_out path in
  output_string oc dot;
  close_out oc;
  Format.printf "@.Consented workflow written to %s (render with graphviz).@." path
