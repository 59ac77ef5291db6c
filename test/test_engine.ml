(* Tests for the multi-user serving engine: shared-index correctness
   (reachability snapshot, cached-path filtering), engine-vs-fresh-solve
   equivalence for every algorithm, withdrawal invalidation, and
   determinism of parallel drains. *)

open Cdw_core
module Engine = Cdw_engine.Engine
module Metrics = Cdw_engine.Metrics
module Session = Cdw_engine.Session
module Shared_index = Cdw_engine.Shared_index
module Workbench = Cdw_engine.Workbench
module Digraph = Cdw_graph.Digraph
module Paths = Cdw_graph.Paths
module Reach = Cdw_graph.Reach
module Generator = Cdw_workload.Generator
module Json = Cdw_util.Json
module Splitmix = Cdw_util.Splitmix

let instance ?(n_vertices = 24) ?(stages = 3) seed =
  Generator.generate ~seed
    {
      Cdw_workload.Gen_params.default with
      Cdw_workload.Gen_params.n_vertices;
      n_constraints = 0;
      stages;
    }

(* The first [k] (user, purpose) pairs connected in the base. *)
let connected_pairs wf k =
  let g = Workflow.graph wf in
  let all =
    List.concat_map
      (fun s ->
        List.filter_map
          (fun t ->
            if Reach.exists_path g s t then Some (s, t) else None)
          (Workflow.purposes wf))
      (Workflow.users wf)
  in
  List.filteri (fun i _ -> i < k) all

let ok_or_fail = function Ok () -> () | Error e -> Alcotest.fail e

(* ---------------------------------------------------------------- *)
(* Reach.Snapshot                                                     *)

let test_snapshot_matches_bfs =
  Test_helpers.qcheck ~count:50 "snapshot matches per-query BFS"
    QCheck2.Gen.(pair small_nat (int_bound 1000))
    (fun (n, seed) ->
      let n = max 2 (n mod 30) in
      let g = Test_helpers.random_dag ~seed ~n ~density:0.15 in
      let snap = Reach.Snapshot.create g in
      let ok = ref true in
      for u = 0 to n - 1 do
        if not (Reach.Snapshot.reaches snap u u) then ok := false;
        for v = 0 to n - 1 do
          if u <> v
             && Reach.Snapshot.reaches snap u v <> Reach.exists_path g u v
          then ok := false
        done
      done;
      !ok)

(* ---------------------------------------------------------------- *)
(* Shared_index                                                       *)

(* Cached base paths filtered by liveness must equal a fresh DFS
   enumeration on the cut copy — same paths, same order. *)
let test_live_paths_equal_fresh =
  Test_helpers.qcheck ~count:50 "live_paths == fresh enumeration on cut copies"
    QCheck2.Gen.(int_bound 1000)
    (fun seed ->
      let i = instance seed in
      let wf = i.Generator.workflow in
      let index = Shared_index.create wf in
      let base = Shared_index.base index in
      let pairs = connected_pairs base 4 in
      (* Cut a copy: remove the first edge of the first path of each pair. *)
      let copy = Workflow.copy base in
      List.iter
        (fun (s, t) ->
          match Paths.all_paths (Workflow.graph copy) ~src:s ~dst:t with
          | (e :: _) :: _ when not (Digraph.edge_removed (Workflow.graph copy) e) ->
              ignore (Valuation.remove_with_cascade copy [ e ])
          | _ -> ())
        pairs;
      List.for_all
        (fun (s, t) ->
          let cached =
            Shared_index.live_paths index copy ~source:s ~target:t
            |> List.map (List.map Digraph.edge_id)
          in
          let fresh =
            Paths.all_paths (Workflow.graph copy) ~src:s ~dst:t
            |> List.map (List.map Digraph.edge_id)
          in
          cached = fresh)
        pairs)

let test_base_utility () =
  let i = instance 7 in
  let index = Shared_index.create i.Generator.workflow in
  Alcotest.(check (float 1e-9))
    "memoized base utility"
    (Utility.total (Shared_index.base index))
    (Shared_index.base_utility index)

(* ---------------------------------------------------------------- *)
(* Engine vs fresh solve, per algorithm                               *)

let live_ids wf = Test_helpers.live_edge_ids (Workflow.graph wf)

(* One user, one Add: the engine session (shared base, cached paths,
   memoized base utility) must land on exactly the solution a fresh
   [Algorithms.solve] computes from scratch. *)
let test_engine_matches_fresh () =
  let i = instance 11 in
  let wf = i.Generator.workflow in
  let pairs = connected_pairs wf 3 in
  List.iter
    (fun algorithm ->
      let engine = Engine.create ~algorithm ~seed:123 wf in
      Engine.submit engine ~user:"u" (Engine.Add pairs);
      List.iter
        (fun (r : Engine.reply) -> ok_or_fail r.Engine.result)
        (Engine.drain engine);
      let session = Engine.session engine "u" in
      let options =
        {
          Algorithms.Options.default with
          Algorithms.Options.rng =
            Some (Splitmix.create (Engine.session_seed engine "u"));
        }
      in
      let cs = Constraint_set.make_exn wf (List.sort_uniq compare pairs) in
      let outcome = Algorithms.solve ~options algorithm wf cs in
      let name = Algorithms.to_string algorithm in
      Alcotest.(check (list int))
        (name ^ ": same removed edges")
        (live_ids outcome.Algorithms.workflow)
        (live_ids (Session.workflow session));
      Alcotest.(check (float 1e-9))
        (name ^ ": same utility")
        outcome.Algorithms.utility_after (Session.utility session);
      Alcotest.(check bool)
        (name ^ ": consented") true
        (Constraint_set.satisfied (Session.workflow session)
           (Session.constraints session)))
    Algorithms.all_names

(* ---------------------------------------------------------------- *)
(* Withdrawal invalidation                                            *)

let test_withdrawal_invalidation () =
  let i = instance 13 in
  let wf = i.Generator.workflow in
  let pairs = connected_pairs wf 4 in
  let withdrawn, kept =
    (List.filteri (fun i _ -> i < 2) pairs, List.filteri (fun i _ -> i >= 2) pairs)
  in
  let engine = Engine.create ~algorithm:Algorithms.Remove_first_edge wf in
  Engine.submit engine ~user:"u" (Engine.Add pairs);
  List.iter
    (fun (r : Engine.reply) -> ok_or_fail r.Engine.result)
    (Engine.drain engine);
  (* Separate drain: the withdrawal must rebuild from the pristine
     base, resurrecting edges cut only for the withdrawn pairs. *)
  Engine.submit engine ~user:"u" (Engine.Withdraw withdrawn);
  List.iter
    (fun (r : Engine.reply) -> ok_or_fail r.Engine.result)
    (Engine.drain engine);
  let session = Engine.session engine "u" in
  Alcotest.(check (list (pair int int)))
    "remaining constraints"
    (List.sort compare kept)
    (List.sort compare (Constraint_set.pairs (Session.constraints session)));
  let fresh =
    Algorithms.solve Algorithms.Remove_first_edge wf
      (Constraint_set.make_exn wf (List.sort_uniq compare kept))
  in
  Alcotest.(check (list int))
    "state equals fresh solve of the remaining set"
    (live_ids fresh.Algorithms.workflow)
    (live_ids (Session.workflow session));
  Alcotest.(check int) "full resolve counted" 1
    (Session.stats session).Incremental.full_resolves;
  (* Withdrawing an unknown pair is an error and changes nothing. *)
  let before = live_ids (Session.workflow session) in
  Engine.submit engine ~user:"u" (Engine.Withdraw withdrawn);
  (match Engine.drain engine with
  | [ { Engine.result = Error _; _ } ] -> ()
  | _ -> Alcotest.fail "expected an error reply");
  Alcotest.(check (list int)) "session untouched" before
    (live_ids (Session.workflow session))

(* Coalescing inside one drain: add-then-withdraw nets out to a single
   update; the final state matches serving the same script request by
   request on a second engine across separate drains. *)
let test_coalescing_net_change () =
  let i = instance 17 in
  let wf = i.Generator.workflow in
  let pairs = connected_pairs wf 4 in
  let first = List.filteri (fun i _ -> i < 2) pairs in
  let script =
    [ Engine.Add first; Engine.Add pairs; Engine.Withdraw first ]
  in
  let coalesced = Engine.create ~algorithm:Algorithms.Remove_first_edge wf in
  List.iter (fun r -> Engine.submit coalesced ~user:"u" r) script;
  let replies = Engine.drain coalesced in
  Alcotest.(check int) "one reply per request" (List.length script)
    (List.length replies);
  List.iter (fun (r : Engine.reply) -> ok_or_fail r.Engine.result) replies;
  let stepwise = Engine.create ~algorithm:Algorithms.Remove_first_edge wf in
  List.iter
    (fun r ->
      Engine.submit stepwise ~user:"u" r;
      List.iter
        (fun (r : Engine.reply) -> ok_or_fail r.Engine.result)
        (Engine.drain stepwise))
    script;
  Alcotest.(check (list (pair int int)))
    "same final constraint set"
    (List.sort compare
       (Constraint_set.pairs (Session.constraints (Engine.session stepwise "u"))))
    (List.sort compare
       (Constraint_set.pairs (Session.constraints (Engine.session coalesced "u"))));
  Alcotest.(check (list int))
    "same final workflow"
    (live_ids (Session.workflow (Engine.session stepwise "u")))
    (live_ids (Session.workflow (Engine.session coalesced "u")));
  Alcotest.(check int) "one solve for the whole batch" 1
    (Session.stats (Engine.session coalesced "u")).Incremental.solver_runs

(* ---------------------------------------------------------------- *)
(* Parallel drain determinism                                         *)

let strip (r : Engine.reply) = (r.Engine.user, r.Engine.request, r.Engine.result)

let run_drain drain =
  let i = instance ~n_vertices:40 19 in
  let wf = i.Generator.workflow in
  let pairs = Array.of_list (connected_pairs wf 8) in
  let engine = Engine.create ~algorithm:Algorithms.Remove_random_edge ~seed:7 wf in
  let rng = Splitmix.create 99 in
  for round = 0 to 2 do
    for u = 0 to 4 do
      let user = Printf.sprintf "user-%d" u in
      let pair = Splitmix.pick rng pairs in
      Engine.submit engine ~user
        (if round = 2 && u mod 2 = 0 then Engine.Resolve else Engine.Add [ pair ])
    done
  done;
  let replies = drain engine in
  let states =
    List.map
      (fun (user, s) -> (user, live_ids (Session.workflow s), Session.utility s))
      (Engine.sessions engine)
  in
  (List.map strip replies, states)

let test_parallel_equals_sequential () =
  let seq_replies, seq_states = run_drain Engine.drain in
  let par_replies, par_states = run_drain Engine.drain_fanout in
  Alcotest.(check bool) "same replies" true (seq_replies = par_replies);
  Alcotest.(check bool) "same final session states" true
    (seq_states = par_states)

(* ---------------------------------------------------------------- *)
(* Metrics / workbench                                                *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec loop i = i + m <= n && (String.sub s i m = sub || loop (i + 1)) in
  m = 0 || loop 0

(* Reservoir-sampled latency storage: memory stays bounded however many
   samples stream in, while n/mean/min/max stay exact. *)
let test_metrics_reservoir () =
  let m = Metrics.create ~max_samples:64 () in
  Alcotest.(check int) "cap recorded" 64 (Metrics.max_samples m);
  let n = 10_000 in
  for i = 1 to n do
    Metrics.record_ms m "drain" (float_of_int i)
  done;
  Alcotest.(check int) "storage bounded by the cap" 64
    (Metrics.stored_samples m "drain");
  (match Metrics.summary m "drain" with
  | None -> Alcotest.fail "no summary"
  | Some s ->
      Alcotest.(check int) "n is the full stream" n s.Cdw_util.Stats.n;
      Alcotest.(check (float 1e-9)) "exact min" 1.0 s.Cdw_util.Stats.min;
      Alcotest.(check (float 1e-9)) "exact max" (float_of_int n) s.Cdw_util.Stats.max;
      Alcotest.(check (float 1e-6)) "exact mean"
        (float_of_int (n + 1) /. 2.0)
        s.Cdw_util.Stats.mean;
      (* The reservoir is a uniform sample of [1, n]: its std estimate
         must be in the right ballpark of the true n/sqrt(12). *)
      let true_std = float_of_int n /. sqrt 12.0 in
      Alcotest.(check bool) "std estimated from the reservoir" true
        (s.Cdw_util.Stats.std > 0.3 *. true_std
        && s.Cdw_util.Stats.std < 3.0 *. true_std));
  (* Below the cap nothing is sampled away. *)
  let small = Metrics.create ~max_samples:64 () in
  for i = 1 to 10 do
    Metrics.record_ms small "k" (float_of_int i)
  done;
  Alcotest.(check int) "under the cap everything is stored" 10
    (Metrics.stored_samples small "k");
  match Metrics.create ~max_samples:1 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "cap of 1 accepted"

(* Regression: withdrawing a pair that was never accepted — whether its
   ids are valid vertices or garbage outside the vertex range — must
   come back as a clean [Error] reply, and the engine must keep serving
   afterwards. (The out-of-range case used to raise out of [drain]
   while formatting the error message.) *)
let test_withdraw_unknown_pair () =
  let inst = instance 77 in
  let wf = inst.Generator.workflow in
  let engine = Engine.create ~algorithm:Algorithms.Remove_first_edge wf in
  let n = Workflow.n_vertices wf in
  let pairs = connected_pairs wf 2 in
  let never_accepted = List.nth pairs 1 in
  Engine.submit engine ~user:"alice" (Engine.Withdraw [ (n + 5, n + 9) ]);
  Engine.submit engine ~user:"bob" (Engine.Withdraw [ never_accepted ]);
  (match Engine.drain engine with
  | [ garbage; valid_ids ] ->
      List.iter
        (fun (r : Engine.reply) ->
          match r.Engine.result with
          | Error msg ->
              Alcotest.(check bool)
                (r.Engine.user ^ ": error names the unknown constraint")
                true (String.length msg > 0)
          | Ok () ->
              Alcotest.failf "%s: withdraw of never-accepted pair succeeded"
                r.Engine.user)
        [ garbage; valid_ids ]
  | replies -> Alcotest.failf "expected 2 replies, got %d" (List.length replies));
  (* The engine is still serviceable: a normal accept round succeeds. *)
  Engine.submit engine ~user:"alice" (Engine.Add [ List.hd pairs ]);
  match Engine.drain engine with
  | [ r ] -> ok_or_fail r.Engine.result
  | replies -> Alcotest.failf "expected 1 reply, got %d" (List.length replies)

let test_metrics_json () =
  let result = Workbench.run ~trials:1 Workbench.quick in
  Alcotest.(check bool) "speedup positive" true (result.Workbench.speedup > 0.0);
  Alcotest.(check bool) "shared path cache hit" true
    (result.Workbench.path_cache_hits > 0);
  let json = Json.to_string result.Workbench.metrics in
  List.iter
    (fun key ->
      Alcotest.(check bool) (key ^ " present") true (contains json key))
    [ "counters"; "latency_ms"; "sessions"; "index.paths.hit"; "solve" ]

(* Regression pin for Metrics.merge_into: [.error] counters — the ones
   [Metrics.time] bumps when a timed thunk raises — are plain counters
   and must merge additively like any other, including when only the
   source registry has seen a failure. A merge that rebuilt counters
   from the latency series would drop them (the series and its error
   counter share a key prefix, not storage). *)
let test_merge_preserves_error_counters () =
  let into = Metrics.create () in
  let src = Metrics.create () in
  Metrics.incr into "drain.user";
  (try Metrics.time into "drain.user" (fun () -> failwith "boom")
   with Failure _ -> ());
  (try Metrics.time src "drain.user" (fun () -> failwith "boom")
   with Failure _ -> ());
  (* A bare error counter with no twin series in [into]. *)
  Metrics.incr src "shard.submit.rejected.error";
  Metrics.merge_into ~into src;
  Alcotest.(check int) "errors add across registries" 2
    (Metrics.counter into "drain.user.error");
  Alcotest.(check int) "src-only error counter survives" 1
    (Metrics.counter into "shard.submit.rejected.error");
  Alcotest.(check int) "plain counter untouched" 1
    (Metrics.counter into "drain.user");
  (* And the merged registry reports them in its JSON view. *)
  let json = Json.to_string (Metrics.to_json into) in
  Alcotest.(check bool) "error counters in json" true
    (contains json "drain.user.error")

let suite =
  [
    test_snapshot_matches_bfs;
    test_live_paths_equal_fresh;
    ("memoized base utility", `Quick, test_base_utility);
    ("engine matches fresh solve", `Quick, test_engine_matches_fresh);
    ("withdrawal invalidation", `Quick, test_withdrawal_invalidation);
    ("coalesced net change", `Quick, test_coalescing_net_change);
    ("parallel == sequential drain", `Quick, test_parallel_equals_sequential);
    ("withdraw of never-accepted pair is a clean error", `Quick, test_withdraw_unknown_pair);
    ("metrics reservoir sampling", `Quick, test_metrics_reservoir);
    ("metrics json", `Quick, test_metrics_json);
    ( "metrics merge preserves .error counters",
      `Quick,
      test_merge_preserves_error_counters );
  ]
