(* Users of one preference type share one solve (§8): the serving
   value's per-epoch solve memo runs the solver once per distinct
   constraint list, and every member of a type lands on the same
   consented workflow. *)

open Cdw_core
module Engine = Cdw_engine.Engine
module Metrics = Cdw_engine.Metrics
module Session = Cdw_engine.Session
module Serving = Cdw_shard.Serving
module Digraph = Cdw_graph.Digraph
module Reach = Cdw_graph.Reach

(* Two sources feeding one combiner and two purposes. *)
let build () =
  let wf = Workflow.create () in
  let location = Workflow.add_user ~name:"location" wf in
  let history = Workflow.add_user ~name:"history" wf in
  let combine = Workflow.add_algorithm ~name:"combine" wf in
  let ads = Workflow.add_purpose ~name:"ads" wf in
  let feed = Workflow.add_purpose ~name:"feed" wf in
  let _ = Workflow.connect ~value:10.0 wf location combine in
  let _ = Workflow.connect ~value:4.0 wf history combine in
  let _ = Workflow.connect wf combine ads in
  let _ = Workflow.connect wf combine feed in
  (wf, location, history, ads, feed)

let drain_ok serving =
  List.iter
    (fun (r : Engine.reply) ->
      match r.Engine.result with
      | Ok () -> ()
      | Error e -> Alcotest.fail (r.Engine.user ^ ": " ^ e))
    (Serving.drain serving)

let memo serving which =
  Metrics.counter (Serving.metrics serving) ("solve.memo." ^ which)

(* One user per type is served first, so the memo is warm for the rest:
   a drain solves users in parallel, and two users of one type in one
   cold drain may both solve it. *)
let serve_types wf users =
  let serving = Serving.create wf in
  let seen = Hashtbl.create 8 in
  let firsts, rest =
    List.partition
      (fun (_, pairs) ->
        let first = not (Hashtbl.mem seen pairs) in
        Hashtbl.replace seen pairs ();
        first)
      users
  in
  List.iter
    (fun batch ->
      List.iter
        (fun (user, pairs) -> Serving.submit serving ~user (Engine.Add pairs))
        batch;
      drain_ok serving)
    [ firsts; rest ];
  (serving, List.length firsts)

let test_cohorts_grouping () =
  let wf, location, history, ads, feed = build () in
  let users =
    [
      ("alice", [ (location, ads) ]);
      ("bob", [ (location, ads) ]);
      ("carol", [ (history, feed) ]);
      ("dave", [ (location, ads) ]);
    ]
  in
  let serving, types = serve_types wf users in
  Alcotest.(check int) "two distinct types" 2 types;
  Alcotest.(check int) "solver ran once per type" 2 (memo serving "miss");
  Alcotest.(check int) "every other member hit the memo" 2 (memo serving "hit");
  let cuts user = Session.cut_ids (Serving.session serving user) in
  Alcotest.(check (list int)) "bob shares alice's cut" (cuts "alice") (cuts "bob");
  Alcotest.(check (list int)) "dave shares alice's cut" (cuts "alice") (cuts "dave");
  List.iter
    (fun (user, _) ->
      let s = Serving.session serving user in
      Alcotest.(check bool) (user ^ ": consented") true
        (Constraint_set.satisfied (Session.workflow s) (Session.constraints s)))
    users;
  Serving.close serving

let test_distinct_types_separate () =
  let wf, location, history, ads, feed = build () in
  let users =
    [
      ("alice", [ (location, ads) ]);
      ("carol", [ (history, feed) ]);
      ("erin", [ (location, ads); (history, feed) ]);
    ]
  in
  let serving, types = serve_types wf users in
  Alcotest.(check int) "three types" 3 types;
  Alcotest.(check int) "one solve each" 3 (memo serving "miss");
  Alcotest.(check int) "no member shared a type" 0 (memo serving "hit");
  Serving.close serving

let test_invalid_pair_rejected () =
  let wf, location, _, ads, _ = build () in
  let serving = Serving.create wf in
  Serving.submit serving ~user:"eve" (Engine.Add [ (location, location) ]);
  Serving.submit serving ~user:"mallory" (Engine.Add [ (-1, ads); (location, 10_000) ]);
  List.iter
    (fun (r : Engine.reply) ->
      match r.Engine.result with
      | Error _ -> ()
      | Ok () -> Alcotest.fail (r.Engine.user ^ ": invalid pair accepted"))
    (Serving.drain serving);
  Alcotest.(check int) "no solve for a rejected request" 0 (memo serving "miss");
  Alcotest.(check (list int)) "session untouched" []
    (Session.cut_ids (Serving.session serving "eve"));
  Serving.close serving

(* The memo answers with what a direct solve of the same constraints
   on the same workflow gives. *)
let test_served_equals_direct_solve () =
  let wf = Cdw_workload.Catalog.social_media () in
  let cs = Cdw_workload.Catalog.social_media_constraints wf in
  let pairs = Constraint_set.pairs cs in
  let serving, _ = serve_types wf [ ("ann", pairs); ("ben", pairs) ] in
  let direct = Algorithms.solve Algorithms.Remove_min_mc wf cs in
  List.iter
    (fun user ->
      let s = Serving.session serving user in
      Alcotest.(check (float 1e-9)) (user ^ ": utility")
        direct.Algorithms.utility_after (Session.utility s))
    [ "ann"; "ben" ];
  Alcotest.(check int) "second member hit" 1 (memo serving "hit");
  Serving.close serving

(* A served workflow is the base minus the session's cut: an edge
   carries data iff it is not cut, and no accepted pair stays
   connected. The base itself is left intact. *)
let test_served_workflow_is_base_minus_cut () =
  let wf = Cdw_workload.Catalog.social_media () in
  let cs = Cdw_workload.Catalog.social_media_constraints wf in
  let pairs = Constraint_set.pairs cs in
  let serving, _ = serve_types wf [ ("ann", pairs) ] in
  let s = Serving.session serving "ann" in
  let served = Workflow.graph (Session.workflow s) in
  let base = Workflow.graph (Serving.base serving) in
  let cut = Session.cut_ids s in
  Alcotest.(check bool) "something was cut" true (cut <> []);
  for id = 0 to Digraph.n_edges_total base - 1 do
    let removed = Digraph.edge_removed served (Digraph.edge served id) in
    Alcotest.(check bool)
      (Printf.sprintf "edge %d removed iff cut" id)
      (List.mem id cut) removed;
    Alcotest.(check bool)
      (Printf.sprintf "base edge %d live" id)
      false
      (Digraph.edge_removed base (Digraph.edge base id))
  done;
  List.iter
    (fun (u, p) ->
      Alcotest.(check bool) "accepted pair disconnected" false
        (Reach.exists_path served u p);
      Alcotest.(check bool) "base pair still connected" true
        (Reach.exists_path base u p))
    pairs;
  Serving.close serving

(* Withdrawing returns one member to the base; the rest of the type
   keeps its cut. *)
let test_member_withdrawal () =
  let wf, location, _, ads, _ = build () in
  let pairs = [ (location, ads) ] in
  let serving, _ = serve_types wf [ ("alice", pairs); ("bob", pairs) ] in
  let bob_cut = Session.cut_ids (Serving.session serving "bob") in
  Serving.submit serving ~user:"alice" (Engine.Withdraw pairs);
  drain_ok serving;
  let alice = Serving.session serving "alice" in
  Alcotest.(check (list int)) "alice back on the base" [] (Session.cut_ids alice);
  Alcotest.(check int) "no constraints left" 0
    (Constraint_set.size (Session.constraints alice));
  Alcotest.(check (float 1e-9)) "base utility"
    (Utility.total (Serving.base serving))
    (Session.utility alice);
  let bob = Serving.session serving "bob" in
  Alcotest.(check (list int)) "bob keeps the cut" bob_cut (Session.cut_ids bob);
  Alcotest.(check bool) "bob still consented" true
    (Constraint_set.satisfied (Session.workflow bob) (Session.constraints bob));
  Serving.close serving

(* Each shard of a group keeps its own memo and drains its users in
   order on one domain, so even a single cold drain solves a type once
   per shard that serves it. *)
let test_memo_once_per_shard () =
  let wf, location, history, ads, feed = build () in
  let users =
    ("carol", [ (history, feed) ])
    :: List.init 7 (fun i -> (Printf.sprintf "user%d" i, [ (location, ads) ]))
  in
  let serving = Serving.create ~shards:2 wf in
  let solves =
    List.sort_uniq compare
      (List.map (fun (u, pairs) -> (Serving.route serving u, pairs)) users)
  in
  Alcotest.(check bool) "the shared type lands on both shards" true
    (List.length solves = 3);
  List.iter
    (fun (user, pairs) -> Serving.submit serving ~user (Engine.Add pairs))
    users;
  drain_ok serving;
  Alcotest.(check int) "one solve per (shard, type)" (List.length solves)
    (memo serving "miss");
  Alcotest.(check int) "every other user hit" (List.length users - List.length solves)
    (memo serving "hit");
  Serving.close serving

let suite =
  [
    Alcotest.test_case "cohort grouping solves once per type" `Quick
      test_cohorts_grouping;
    Alcotest.test_case "distinct types solve separately" `Quick
      test_distinct_types_separate;
    Alcotest.test_case "invalid pairs are rejected before solving" `Quick
      test_invalid_pair_rejected;
    Alcotest.test_case "served cut = direct solve" `Quick
      test_served_equals_direct_solve;
    Alcotest.test_case "served workflow = base minus cut" `Quick
      test_served_workflow_is_base_minus_cut;
    Alcotest.test_case "a member's withdrawal leaves the type's cut" `Quick
      test_member_withdrawal;
    Alcotest.test_case "a cold drain solves a type once per shard" `Quick
      test_memo_once_per_shard;
  ]
