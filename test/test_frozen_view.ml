(* Differential tests for the frozen-CSR/view graph representation: the
   five solving algorithms must produce bit-identical removed-edge sets
   and utilities whether they run on the mutable builder workflow or on
   a frozen copy-free view of it, across the paper's dataset presets;
   plus view semantics (remove/restore round-trips, n_edges and
   adjacency consistency, cheap copies) and snapshot-replay of view
   state through the ledger. *)

open Cdw_core
module Digraph = Cdw_graph.Digraph
module Topo = Cdw_graph.Topo
module Gen_params = Cdw_workload.Gen_params
module Generator = Cdw_workload.Generator
module Engine = Cdw_engine.Engine
module Session = Cdw_engine.Session
module Store = Cdw_store.Store
module Splitmix = Cdw_util.Splitmix
module Json = Cdw_util.Json

let five_algorithms =
  [
    Algorithms.Remove_random_edge;
    Algorithms.Remove_first_edge;
    Algorithms.Remove_last_edge;
    Algorithms.Remove_min_cuts;
    Algorithms.Remove_min_mc;
  ]

(* Solve the same instance on both representations. [Remove_random_edge]
   gets a fresh identically seeded generator per run, so equal outcomes
   certify that both representations enumerate paths in the same order
   (the draws land on the same edges). *)
let solve_both algorithm wf cs =
  let run wf =
    let options =
      {
        Algorithms.Options.default with
        Algorithms.Options.rng = Some (Splitmix.create 0xD1FF);
      }
    in
    Algorithms.solve ~options algorithm wf cs
  in
  (run wf, run (Workflow.freeze wf))

let check_outcomes_equal what (builder_out, view_out) =
  Alcotest.(check (list int))
    (what ^ ": removed edge ids")
    (Test_helpers.edge_ids builder_out.Algorithms.removed)
    (Test_helpers.edge_ids view_out.Algorithms.removed);
  Alcotest.(check (float 0.0))
    (what ^ ": utility before")
    builder_out.Algorithms.utility_before view_out.Algorithms.utility_before;
  Alcotest.(check (float 0.0))
    (what ^ ": utility after")
    builder_out.Algorithms.utility_after view_out.Algorithms.utility_after;
  Alcotest.(check (list int))
    (what ^ ": removed ids on the solved copies")
    (Digraph.removed_edge_ids (Workflow.graph builder_out.Algorithms.workflow))
    (Digraph.removed_edge_ids (Workflow.graph view_out.Algorithms.workflow))

let check_instance what (i : Generator.t) =
  List.iter
    (fun algorithm ->
      let what = Printf.sprintf "%s/%s" what (Algorithms.to_string algorithm) in
      check_outcomes_equal what
        (solve_both algorithm i.Generator.workflow i.Generator.constraints))
    five_algorithms

(* All five algorithms across the paper's dataset presets. *)
let test_differential_datasets () =
  let presets =
    [
      ("dataset1a", Gen_params.dataset1a ~n_constraints:4, 7);
      ("dataset1b", Gen_params.dataset1b ~n_constraints:3, 11);
      ("dataset1c", Gen_params.dataset1c ~n_constraints:4, 13);
      ("dataset2", Gen_params.dataset2_base, 17);
      ("dataset3", Gen_params.dataset3 ~n_vertices:60, 19);
    ]
  in
  List.iter
    (fun (name, params, seed) ->
      check_instance name (Generator.generate ~seed params))
    presets

let prop_differential_random =
  Test_helpers.qcheck ~count:15 "solvers identical on builder vs frozen view"
    QCheck2.Gen.(int_bound 100000)
    (fun seed ->
      let i = Test_helpers.random_instance ~seed in
      List.for_all
        (fun algorithm ->
          let b, v = solve_both algorithm i.Generator.workflow i.Generator.constraints in
          Test_helpers.edge_ids b.Algorithms.removed
          = Test_helpers.edge_ids v.Algorithms.removed
          && b.Algorithms.utility_after = v.Algorithms.utility_after
          && b.Algorithms.utility_before = v.Algorithms.utility_before)
        five_algorithms)

(* ---------------------------------------------------------------- *)
(* View semantics                                                     *)

let out_ids g v = List.map Digraph.edge_id (Digraph.out_edges g v)
let in_ids g v = List.map Digraph.edge_id (Digraph.in_edges g v)

(* A view agrees with the builder it was frozen from on every query, in
   the same order. *)
let prop_view_mirrors_builder =
  Test_helpers.qcheck ~count:60 "frozen view mirrors its builder"
    QCheck2.Gen.(int_bound 100000)
    (fun seed ->
      let g = Test_helpers.random_dag ~seed ~n:14 ~density:0.3 in
      (* Soft-remove a few edges pre-freeze so the base mask is real. *)
      let rng = Splitmix.create seed in
      Digraph.iter_edges
        (fun e -> if Splitmix.int rng 5 = 0 then Digraph.remove_edge g e)
        g;
      let v = Digraph.view (Digraph.freeze g) in
      Digraph.n_vertices g = Digraph.n_vertices v
      && Digraph.n_edges g = Digraph.n_edges v
      && Digraph.n_edges_total g = Digraph.n_edges_total v
      && Test_helpers.live_edge_ids g = Test_helpers.live_edge_ids v
      && List.for_all
           (fun u ->
             out_ids g u = out_ids v u
             && in_ids g u = in_ids v u
             && Digraph.out_degree g u = Digraph.out_degree v u
             && Digraph.in_degree g u = Digraph.in_degree v u)
           (List.init (Digraph.n_vertices g) Fun.id)
      && Topo.sort g = Topo.sort v)

let test_view_remove_restore_roundtrip () =
  let g = Test_helpers.random_dag ~seed:5 ~n:10 ~density:0.4 in
  let v = Digraph.view (Digraph.freeze g) in
  let all = List.init (Digraph.n_edges_total v) (Digraph.edge v) in
  let live_before = Test_helpers.live_edge_ids v in
  let n_before = Digraph.n_edges v in
  (* Remove every other edge, twice (idempotence), then restore. *)
  List.iteri
    (fun i e ->
      if i mod 2 = 0 then begin
        Digraph.remove_edge v e;
        Digraph.remove_edge v e
      end)
    all;
  let expected_removed =
    List.filteri (fun i _ -> i mod 2 = 0) (List.map Digraph.edge_id all)
  in
  Alcotest.(check (list int))
    "removed ids" expected_removed (Digraph.removed_edge_ids v);
  Alcotest.(check int) "n_edges tracks removals"
    (n_before - List.length expected_removed)
    (Digraph.n_edges v);
  List.iter (fun e -> Digraph.restore_edge v e) all;
  Alcotest.(check (list int)) "all live again" live_before
    (Test_helpers.live_edge_ids v);
  Alcotest.(check int) "n_edges restored" n_before (Digraph.n_edges v)

let test_view_copies_independent () =
  let g = Test_helpers.random_dag ~seed:6 ~n:10 ~density:0.4 in
  let v = Digraph.view (Digraph.freeze g) in
  let c = Digraph.copy v in
  let e = Digraph.edge v 0 in
  Digraph.remove_edge v e;
  Alcotest.(check bool) "copy unaffected by original's cut" false
    (Digraph.edge_removed c e);
  Digraph.remove_edge c (Digraph.edge c 1);
  Alcotest.(check bool) "original unaffected by copy's cut" false
    (Digraph.edge_removed v (Digraph.edge v 1));
  Alcotest.(check bool) "copy is a view too" true (Digraph.is_view c)

let test_view_rejects_structural_mutation () =
  let g = Test_helpers.random_dag ~seed:7 ~n:6 ~density:0.5 in
  let v = Digraph.view (Digraph.freeze g) in
  (match Digraph.add_vertex v with
  | _ -> Alcotest.fail "add_vertex on a view should raise"
  | exception Invalid_argument _ -> ());
  match Digraph.add_edge v 0 1 with
  | _ -> Alcotest.fail "add_edge on a view should raise"
  | exception Invalid_argument _ -> ()

let test_thaw_roundtrip () =
  let g = Test_helpers.random_dag ~seed:8 ~n:12 ~density:0.3 in
  let v = Digraph.view (Digraph.freeze g) in
  Digraph.remove_edge v (Digraph.edge v 2);
  let b = Digraph.thaw v in
  Alcotest.(check bool) "thawed is a builder" false (Digraph.is_view b);
  Alcotest.(check (list int))
    "same live ids"
    (Test_helpers.live_edge_ids v)
    (Test_helpers.live_edge_ids b);
  Alcotest.(check (list int))
    "same removed ids"
    (Digraph.removed_edge_ids v)
    (Digraph.removed_edge_ids b);
  (* Thawed builders grow again. *)
  let u = Digraph.add_vertex b in
  ignore (Digraph.add_edge b 0 u)

(* Restoring an edge the *base* had removed invalidates the frozen topo
   hint; Topo.sort must fall back to a fresh sort that sees the edge. *)
let test_restore_below_base_resorts () =
  let g = Digraph.create () in
  ignore (Digraph.add_vertices g 3);
  let e01 = Digraph.add_edge g 0 1 in
  let _e12 = Digraph.add_edge g 1 2 in
  let e20 = Digraph.add_edge g 2 0 in
  (* Base removes 2->0, so the base is acyclic and has a topo hint. *)
  Digraph.remove_edge g e20;
  let v = Digraph.view (Digraph.freeze g) in
  Alcotest.(check bool) "view starts acyclic" true (Topo.is_dag v);
  (* Restoring the base-removed back edge closes the cycle: the stale
     hint must not hide it. *)
  Digraph.restore_edge v e20;
  Alcotest.(check bool) "restored back edge closes a cycle" false
    (Topo.is_dag v);
  Digraph.remove_edge v e01;
  Alcotest.(check bool) "cutting elsewhere reopens it" true (Topo.is_dag v)

let test_freeze_of_view_rebases () =
  let g = Test_helpers.random_dag ~seed:9 ~n:10 ~density:0.4 in
  let v = Digraph.view (Digraph.freeze g) in
  Digraph.remove_edge v (Digraph.edge v 0);
  let v2 = Digraph.view (Digraph.freeze v) in
  Alcotest.(check (list int))
    "re-frozen view inherits the cuts"
    (Digraph.removed_edge_ids v)
    (Digraph.removed_edge_ids v2);
  Alcotest.(check int) "and the live count" (Digraph.n_edges v)
    (Digraph.n_edges v2)

(* ---------------------------------------------------------------- *)
(* Snapshot-replay of view state through the store                    *)

let temp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "cdw_frozen_view_%d_%d" (Unix.getpid ()) !counter)
    in
    if Sys.file_exists dir then
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir)
    else Unix.mkdir dir 0o755;
    dir

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let with_dir f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let session_state engine =
  List.sort compare
    (List.map
       (fun (user, s) ->
         ( user,
           List.sort compare (Constraint_set.pairs (Session.constraints s)),
           List.sort compare (Session.cut_ids s),
           Session.utility s ))
       (Engine.sessions engine))

(* A session's cuts survive the snapshot → recover round-trip exactly:
   same constraints, same removed-edge ids, same utility — installed
   directly from the snapshot, without re-running the solver. *)
let test_snapshot_replays_view_state () =
  with_dir @@ fun dir ->
  let i = Generator.generate ~seed:21 (Gen_params.dataset3 ~n_vertices:30) in
  let wf = i.Generator.workflow in
  let pairs = Constraint_set.pairs i.Generator.constraints in
  let engine = Engine.create ~algorithm:Algorithms.Remove_first_edge ~seed:7 wf in
  let store =
    Store.create ~dir ~algorithm:Algorithms.Remove_first_edge ~seed:7 wf
  in
  Store.attach store engine;
  List.iteri
    (fun n pair ->
      Engine.submit engine
        ~user:(Printf.sprintf "user-%d" (n mod 2))
        (Engine.Add [ pair ]))
    pairs;
  ignore (Engine.drain engine);
  Store.write_snapshot store engine;
  Store.close store;
  let live = session_state engine in
  Alcotest.(check bool) "some session has cuts" true
    (List.exists (fun (_, _, cuts, _) -> cuts <> []) live);
  (match Store.recover dir with
  | Error e -> Alcotest.failf "recovery failed: %s" e
  | Ok r ->
      let solver_runs =
        List.fold_left
          (fun acc (_, s) -> acc + (Session.stats s).Incremental.solver_runs)
          0
          (Engine.sessions r.Store.engine)
      in
      Alcotest.(check int) "restore installed cuts without solving" 0
        solver_runs;
      List.iter2
        (fun (u1, p1, c1, ut1) (u2, p2, c2, ut2) ->
          Alcotest.(check string) "user" u1 u2;
          Alcotest.(check (list (pair int int))) "constraints" p1 p2;
          Alcotest.(check (list int)) "cut edge ids" c1 c2;
          Alcotest.(check (float 0.0)) "utility" ut1 ut2)
        live
        (session_state r.Store.engine));
  (* Legacy snapshots (no "cuts" field) still recover, through the
     re-solve path, to the same state. *)
  let path = Store.snapshot_path dir in
  let text = In_channel.with_open_bin path In_channel.input_all in
  let stripped =
    match Json.parse text with
    | Error e -> Alcotest.fail e
    | Ok json ->
        let rec strip = function
          | Json.Object fields ->
              Json.Object
                (List.filter_map
                   (fun (k, v) ->
                     if k = "cuts" then None else Some (k, strip v))
                   fields)
          | Json.Array xs -> Json.Array (List.map strip xs)
          | other -> other
        in
        Json.to_string (strip json)
  in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc stripped);
  match Store.recover dir with
  | Error e -> Alcotest.failf "legacy recovery failed: %s" e
  | Ok r ->
      List.iter2
        (fun (u1, p1, c1, ut1) (u2, p2, c2, ut2) ->
          Alcotest.(check string) "legacy user" u1 u2;
          Alcotest.(check (list (pair int int))) "legacy constraints" p1 p2;
          Alcotest.(check (list int)) "legacy cut edge ids" c1 c2;
          Alcotest.(check (float 0.0)) "legacy utility" ut1 ut2)
        live
        (session_state r.Store.engine)

let suite =
  [
    ("differential: dataset presets", `Slow, test_differential_datasets);
    prop_differential_random;
    prop_view_mirrors_builder;
    ("view remove/restore round-trip", `Quick, test_view_remove_restore_roundtrip);
    ("view copies are independent", `Quick, test_view_copies_independent);
    ("views reject structural mutation", `Quick, test_view_rejects_structural_mutation);
    ("thaw round-trip", `Quick, test_thaw_roundtrip);
    ("restore below base invalidates topo hint", `Quick, test_restore_below_base_resorts);
    ("freeze of a view rebases the mask", `Quick, test_freeze_of_view_rebases);
    ("store snapshot replays view state", `Quick, test_snapshot_replays_view_state);
  ]
