(* Cross-module invariants on generated instances. *)

open Cdw_core
module Generator = Cdw_workload.Generator

let prop_cross_format_equivalence =
  Test_helpers.qcheck ~count:30 "text and JSON formats describe the same workflow"
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let instance = Test_helpers.random_instance ~seed in
      let wf = instance.Generator.workflow in
      let cs = instance.Generator.constraints in
      match Serialize.of_json (Serialize.to_json ~constraints:cs wf) with
      | Error _ -> false
      | Ok (wf_json, cs_json) -> (
          match Serialize.parse (Serialize.to_string ~constraints:cs_json wf_json) with
          | Error _ -> false
          | Ok (wf_text, cs_text) ->
              Float.abs (Utility.total wf -. Utility.total wf_text) < 1e-6
              && Constraint_set.size cs = Constraint_set.size cs_text
              && Workflow.n_edges wf = Workflow.n_edges wf_text))

let prop_audit_consistency =
  Test_helpers.qcheck ~count:40 "audit statuses mirror constraint satisfaction"
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let instance = Test_helpers.random_instance ~seed in
      let wf = instance.Generator.workflow in
      let cs = instance.Generator.constraints in
      let before = Audit.report wf cs in
      let solved =
        (Algorithms.solve Algorithms.Remove_min_cuts wf cs).Algorithms.workflow
      in
      let after = Audit.report solved cs in
      List.length before.Audit.statuses = Constraint_set.size cs
      && (before.Audit.consented = Constraint_set.satisfied wf cs)
      && after.Audit.consented
      && List.for_all
           (fun s ->
             s.Audit.satisfied = (s.Audit.witness = []))
           (before.Audit.statuses @ after.Audit.statuses))

let prop_cohorts_one_solve_per_type =
  Test_helpers.qcheck ~count:25 "serving solves each preference type once"
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let instance = Test_helpers.random_instance ~seed in
      let wf = instance.Generator.workflow in
      let pairs = Constraint_set.pairs instance.Generator.constraints in
      let rng = Cdw_util.Splitmix.create seed in
      let users =
        List.init 8 (fun i ->
            ( Printf.sprintf "user%d" i,
              List.filter (fun _ -> Cdw_util.Splitmix.bool rng) pairs ))
      in
      let serving, types = Test_cohorts.serve_types wf users in
      let session user = Cdw_shard.Serving.session serving user in
      let cuts user = Cdw_engine.Session.cut_ids (session user) in
      let ok =
        Test_cohorts.memo serving "miss" <= types
        && List.for_all
             (fun (user, ps) ->
               let s = session user in
               let first, _ = List.find (fun (_, qs) -> qs = ps) users in
               cuts user = cuts first
               && Constraint_set.satisfied (Cdw_engine.Session.workflow s)
                    (Cdw_engine.Session.constraints s))
             users
      in
      Cdw_shard.Serving.close serving;
      ok)

let prop_incremental_always_consented =
  Test_helpers.qcheck ~count:25 "incremental session stays consented"
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let instance = Test_helpers.random_instance ~seed in
      let wf = instance.Generator.workflow in
      let session = Incremental.create wf in
      let pairs = Constraint_set.pairs instance.Generator.constraints in
      List.for_all
        (fun pair ->
          match Incremental.add session [ pair ] with
          | Error _ -> false
          | Ok () ->
              Constraint_set.satisfied
                (Incremental.workflow session)
                (Incremental.constraints session))
        pairs)

let suite =
  [
    prop_cross_format_equivalence;
    prop_audit_consistency;
    prop_cohorts_one_solve_per_type;
    prop_incremental_always_consented;
  ]
