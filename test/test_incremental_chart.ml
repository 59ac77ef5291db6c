(* Tests for the incremental consent session and the SVG chart
   emitter. *)

open Cdw_core
module Chart = Cdw_expers.Chart
module Generator = Cdw_workload.Generator

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec loop i = i + m <= n && (String.sub s i m = sub || loop (i + 1)) in
  m = 0 || loop 0

let instance seed =
  Generator.generate ~seed (Cdw_workload.Gen_params.dataset1a ~n_constraints:0)

let connected_pairs wf k =
  let g = Workflow.graph wf in
  let users = Workflow.users wf and purposes = Workflow.purposes wf in
  let all =
    List.concat_map
      (fun s ->
        List.filter_map
          (fun t ->
            if Cdw_graph.Reach.exists_path g s t then Some (s, t) else None)
          purposes)
      users
  in
  List.filteri (fun i _ -> i < k) all

let test_incremental_basic () =
  let i = instance 31 in
  let wf = i.Generator.workflow in
  let session = Incremental.create wf in
  let pairs = connected_pairs wf 6 in
  let first, second =
    (List.filteri (fun i _ -> i < 3) pairs, List.filteri (fun i _ -> i >= 3) pairs)
  in
  (match Incremental.add session first with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "first batch consented" true
    (Constraint_set.satisfied (Incremental.workflow session)
       (Incremental.constraints session));
  Alcotest.(check int) "one solver run" 1 (Incremental.stats session).Incremental.solver_runs;
  (match Incremental.add session second with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "all six accepted" 6
    (Constraint_set.size (Incremental.constraints session));
  Alcotest.(check bool) "still consented" true
    (Constraint_set.satisfied (Incremental.workflow session)
       (Incremental.constraints session));
  (* The input workflow was never touched. *)
  Alcotest.(check bool) "input untouched" false
    (Constraint_set.satisfied wf (Incremental.constraints session))

let test_incremental_free_hits () =
  let i = instance 32 in
  let wf = i.Generator.workflow in
  let session = Incremental.create wf in
  let pairs = connected_pairs wf 2 in
  (match Incremental.add session pairs with Ok () -> () | Error e -> Alcotest.fail e);
  let runs_before = (Incremental.stats session).Incremental.solver_runs in
  (* Re-adding the same pairs is free (duplicates), and so is a pair the
     current cuts already satisfy. *)
  (match Incremental.add session pairs with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check int) "duplicates cost nothing" runs_before
    (Incremental.stats session).Incremental.solver_runs;
  let g = Workflow.graph (Incremental.workflow session) in
  let already_cut =
    List.concat_map
      (fun s ->
        List.filter_map
          (fun t ->
            if
              (not (Cdw_graph.Reach.exists_path g s t))
              && Cdw_graph.Reach.exists_path (Workflow.graph wf) s t
              && not (List.mem (s, t) pairs)
            then Some (s, t)
            else None)
          (Workflow.purposes wf))
      (Workflow.users wf)
  in
  match already_cut with
  | [] -> () (* nothing collaterally disconnected on this instance *)
  | pair :: _ ->
      let hits_before = (Incremental.stats session).Incremental.free_hits in
      (match Incremental.add session [ pair ] with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      Alcotest.(check int) "collaterally satisfied pair is a free hit"
        (hits_before + 1)
        (Incremental.stats session).Incremental.free_hits;
      Alcotest.(check int) "no extra solver run" runs_before
        (Incremental.stats session).Incremental.solver_runs

let test_incremental_withdraw () =
  let i = instance 33 in
  let wf = i.Generator.workflow in
  let session = Incremental.create wf in
  let pairs = connected_pairs wf 4 in
  (match Incremental.add session pairs with Ok () -> () | Error e -> Alcotest.fail e);
  let u_constrained = Incremental.utility session in
  (match Incremental.withdraw session [ List.hd pairs ] with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "constraint count drops" 3
    (Constraint_set.size (Incremental.constraints session));
  Alcotest.(check int) "counted as full resolve" 1
    (Incremental.stats session).Incremental.full_resolves;
  Alcotest.(check bool) "utility can only improve after withdrawal" true
    (Incremental.utility session >= u_constrained -. 1e-9);
  (* Withdrawing everything restores the base utility. *)
  (match Incremental.withdraw session (List.tl pairs) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check (float 1e-6)) "base utility restored" (Utility.total wf)
    (Incremental.utility session);
  match Incremental.withdraw session [ List.hd pairs ] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "withdrawing unknown constraint must fail"

let test_incremental_batch_no_worse () =
  let i = instance 34 in
  let wf = i.Generator.workflow in
  (* With an exact algorithm the batch solve provably dominates any
     feasible solution, including the incrementally built one. *)
  let session =
    Incremental.create ~algorithm:(Algorithms.cut Algorithms.Brute_force) wf
  in
  List.iter
    (fun pair ->
      match Incremental.add session [ pair ] with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
    (connected_pairs wf 5);
  let incremental_u = Incremental.utility session in
  Incremental.resolve_batch session;
  Alcotest.(check bool) "batch solve still consented" true
    (Constraint_set.satisfied (Incremental.workflow session)
       (Incremental.constraints session));
  Alcotest.(check bool) "batch utility at least incremental's" true
    (Incremental.utility session >= incremental_u -. 1e-6)

let test_chart_render () =
  let series =
    [
      { Chart.label = "a"; points = [ (1.0, 1.0); (2.0, 4.0); (3.0, 9.0) ] };
      { Chart.label = "b"; points = [ (1.0, 2.0) ] };
    ]
  in
  let svg = Chart.render ~title:"t" ~x_label:"x" ~y_label:"y" series in
  Alcotest.(check bool) "svg root" true (contains svg "<svg");
  Alcotest.(check bool) "legend labels" true
    (contains svg ">a</text>" && contains svg ">b</text>");
  Alcotest.(check bool) "polyline for multi-point series" true
    (contains svg "<polyline");
  Alcotest.(check bool) "markers" true (contains svg "<circle")

let test_chart_log_scale_drops_nonpositive () =
  let series =
    [ { Chart.label = "a"; points = [ (1.0, 0.0); (2.0, 10.0); (3.0, 1000.0) ] } ]
  in
  let svg = Chart.render ~log_y:true ~title:"log" series in
  Alcotest.(check bool) "renders" true (contains svg "<svg");
  Alcotest.check_raises "all-nonpositive under log is empty"
    (Invalid_argument "Chart.render: nothing to plot") (fun () ->
      ignore
        (Chart.render ~log_y:true ~title:"log"
           [ { Chart.label = "a"; points = [ (1.0, 0.0) ] } ]))

let test_chart_write () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "cdw_chart_test" in
  let path =
    Chart.write ~dir ~name:"demo" ~title:"demo"
      [ { Chart.label = "s"; points = [ (0.0, 1.0); (1.0, 2.0) ] } ]
  in
  Alcotest.(check bool) "file exists" true (Sys.file_exists path);
  Sys.remove path

let suite =
  [
    Alcotest.test_case "incremental: add batches" `Quick test_incremental_basic;
    Alcotest.test_case "incremental: free hits" `Quick test_incremental_free_hits;
    Alcotest.test_case "incremental: withdrawal resolves from base" `Quick
      test_incremental_withdraw;
    Alcotest.test_case "incremental: batch resolve no worse" `Quick
      test_incremental_batch_no_worse;
    Alcotest.test_case "chart rendering" `Quick test_chart_render;
    Alcotest.test_case "chart log scale" `Quick test_chart_log_scale_drops_nonpositive;
    Alcotest.test_case "chart write" `Quick test_chart_write;
  ]
