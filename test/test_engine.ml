(* Tests for the multi-user serving engine: shared-index correctness
   (reachability snapshot, cached-path filtering), engine-vs-fresh-solve
   equivalence for every algorithm, withdrawal invalidation, and
   determinism of parallel drains. *)

open Cdw_core
module Domain_pool = Cdw_engine.Domain_pool
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

(* ---------------------------------------------------------------- *)
(* Engine vs fresh solve, per algorithm                               *)

let live_ids wf = Test_helpers.live_edge_ids (Workflow.graph wf)

(* One user, one Add: the engine session (shared base, cached paths,
   solve memo) must land on exactly the solution a fresh
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
  let pool = Domain_pool.create () in
  let par_replies, par_states =
    Fun.protect
      ~finally:(fun () -> Domain_pool.close pool)
      (fun () -> run_drain (Engine.drain_fanout pool))
  in
  Alcotest.(check bool) "same replies" true (seq_replies = par_replies);
  Alcotest.(check bool) "same final session states" true
    (seq_states = par_states)

(* ---------------------------------------------------------------- *)
(* Metrics / workbench                                                *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec loop i = i + m <= n && (String.sub s i m = sub || loop (i + 1)) in
  m = 0 || loop 0

(* Latency moments are exact: every field of a key's summary equals
   [Stats.summarize] of the whole stream — past any sample count, and
   for a registry merged from two others. *)
let test_metrics_exact_moments () =
  let module Stats = Cdw_util.Stats in
  (* A trending stream far from zero: a naive sum-of-squares variance
     would lose digits here, and the two halves merged below have
     different means. *)
  let sample i =
    1000.0 +. float_of_int (i / 1000) +. (float_of_int ((i * 7919) mod 1009) /. 97.0)
  in
  let check what expected m key =
    match Metrics.summary m key with
    | None -> Alcotest.failf "%s: no summary" what
    | Some (s : Stats.summary) ->
        let e = Stats.summarize expected in
        let close name a b =
          Alcotest.(check (float (1e-9 *. Float.max 1.0 (Float.abs b))))
            (what ^ ": " ^ name) b a
        in
        Alcotest.(check int) (what ^ ": n") e.Stats.n s.Stats.n;
        close "mean" s.Stats.mean e.Stats.mean;
        close "std" s.Stats.std e.Stats.std;
        close "se" s.Stats.se e.Stats.se;
        close "min" s.Stats.min e.Stats.min;
        close "max" s.Stats.max e.Stats.max
  in
  let n = 10_000 in
  let stream = List.init n sample in
  let m = Metrics.create () in
  List.iter (Metrics.record_ms m "drain") stream;
  check "one registry" stream m "drain";
  (* Split unevenly across two registries, recorded two ways, merged. *)
  let head = List.filteri (fun i _ -> i < 3_000) stream in
  let tail = List.filteri (fun i _ -> i >= 3_000) stream in
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.record_all_ms a "drain" head;
  List.iter (Metrics.record_ms b "drain") tail;
  Metrics.merge_into ~into:a b;
  check "merged registry" stream a "drain";
  (* Merging into an empty key copies the source's moments. *)
  let c = Metrics.create () in
  Metrics.merge_into ~into:c b;
  check "merged into empty" tail c "drain";
  (* One sample: no spread. *)
  let one = Metrics.create () in
  Metrics.record_ms one "k" 3.0;
  check "one sample" [ 3.0 ] one "k"

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

(* ---------------------------------------------------------------- *)
(* Solve memo                                                         *)

let drain_ok engine =
  List.iter
    (fun (r : Engine.reply) -> ok_or_fail r.Engine.result)
    (Engine.drain engine)

let solve_runs engine =
  match Metrics.summary (Engine.metrics engine) "solve" with
  | Some s -> s.Cdw_util.Stats.n
  | None -> 0

let memo_counter engine which =
  Metrics.counter (Engine.metrics engine) ("solve.memo." ^ which)

(* The session's cuts, solved directly: an [Incremental] session on a
   private copy of the base, no engine, no memo. *)
let direct_cuts ~algorithm base batches =
  let inc =
    Incremental.create
      ~algorithm:(fun wf cs -> Algorithms.cut algorithm wf cs)
      base
  in
  List.iter (fun batch -> ok_or_fail (Incremental.add inc batch)) batches;
  ( Incremental.delta_removed_ids inc,
    (Incremental.stats inc).Incremental.solver_runs )

(* Two preference types, 12 users each, two rounds of adds: the solver
   runs once per distinct (cuts, pairs) input — the reference session's
   solver runs per type — and every user lands on the cuts of a direct
   solve. *)
let test_memo_one_solve_per_type () =
  let i = instance ~n_vertices:40 23 in
  let wf = i.Generator.workflow in
  let pairs = connected_pairs wf 6 in
  let nth k = List.nth pairs k in
  let types =
    [
      ([ nth 0; nth 1 ], [ nth 4 ]);
      ([ nth 2; nth 3 ], [ nth 5 ]);
    ]
  in
  let algorithm = Algorithms.Remove_min_mc in
  let engine = Engine.create ~algorithm wf in
  let users =
    List.init 24 (fun u ->
        (Printf.sprintf "user-%02d" u, List.nth types (u mod 2)))
  in
  List.iter
    (fun (user, (first, _)) -> Engine.submit engine ~user (Engine.Add first))
    users;
  drain_ok engine;
  List.iter
    (fun (user, (_, second)) -> Engine.submit engine ~user (Engine.Add second))
    users;
  drain_ok engine;
  let base = Engine.base engine in
  let references =
    List.map
      (fun (first, second) -> direct_cuts ~algorithm base [ first; second ])
      types
  in
  let distinct =
    List.fold_left (fun acc (_, runs) -> acc + runs) 0 references
  in
  let asked =
    List.fold_left
      (fun acc (_, s) -> acc + (Session.stats s).Incremental.solver_runs)
      0 (Engine.sessions engine)
  in
  Alcotest.(check int) "one solver run per distinct input" distinct
    (solve_runs engine);
  Alcotest.(check int) "every first ask misses" distinct
    (memo_counter engine "miss");
  Alcotest.(check int) "every other ask hits" (asked - distinct)
    (memo_counter engine "hit");
  List.iter
    (fun (user, ty) ->
      let cuts, _ = List.assoc ty (List.combine types references) in
      Alcotest.(check (list int)) (user ^ ": cuts of a direct solve") cuts
        (Session.cut_ids (Engine.session engine user)))
    users

(* The memo key's cut part from the two masks equals the string of a
   scan over every edge id, as the key was first built. *)
let scan_cuts_key base wf =
  if wf == base then Some ""
  else
    let gb = Workflow.graph base and g = Workflow.graph wf in
    let buf = Buffer.create 16 in
    let rec varint x =
      if x < 0x80 then Buffer.add_char buf (Char.chr x)
      else begin
        Buffer.add_char buf (Char.chr (0x80 lor (x land 0x7f)));
        varint (x lsr 7)
      end
    in
    let rec scan id prev =
      if id >= Digraph.n_edges_total g then Some (Buffer.contents buf)
      else
        let removed_in_base = Digraph.edge_removed gb (Digraph.edge gb id) in
        let removed = Digraph.edge_removed g (Digraph.edge g id) in
        if removed_in_base && not removed then None
        else if removed && not removed_in_base then begin
          varint (id - prev);
          scan (id + 1) id
        end
        else scan (id + 1) prev
    in
    scan 0 (-1)

let prop_cuts_key_matches_scan =
  Test_helpers.qcheck ~count:60 "memo cuts key equals the id scan"
    QCheck2.Gen.(int_bound 100000)
    (fun seed ->
      let i = Test_helpers.random_instance ~seed in
      let wf = i.Generator.workflow in
      let rng = Splitmix.create seed in
      let g = Workflow.graph wf in
      Digraph.iter_edges
        (fun e -> if Splitmix.int rng 8 = 0 then Digraph.remove_edge g e)
        g;
      let base = Workflow.freeze wf in
      (* Cuts spread over the whole id range, so gaps need more than one
         varint byte, and now and then a restore below the base. *)
      let views =
        List.init 6 (fun k ->
            let v = Workflow.copy base in
            let gv = Workflow.graph v in
            for id = 0 to Digraph.n_edges_total gv - 1 do
              let e = Digraph.edge gv id in
              if Digraph.edge_removed gv e then begin
                if k = 5 && Splitmix.int rng 2 = 0 then Digraph.restore_edge gv e
              end
              else if Splitmix.int rng (2 + (k * 20)) = 0 then
                Digraph.remove_edge gv e
            done;
            v)
      in
      List.for_all
        (fun v -> Shared_index.cuts_key base v = scan_cuts_key base v)
        (base :: Workflow.copy base :: views))

(* The key keeps list order: solvers iterate constraints in order, so
   [p; q] and [q; p] are two entries, each solved once. *)
let test_memo_key_keeps_order () =
  let i = instance 29 in
  let index = Shared_index.create i.Generator.workflow in
  let base = Shared_index.base index in
  let p, q =
    match connected_pairs base 2 with
    | [ p; q ] -> (p, q)
    | _ -> Alcotest.fail "instance has fewer than two connected pairs"
  in
  let algorithm = Algorithms.Remove_first_edge in
  let runs = ref 0 in
  let solve pairs =
    let cs = Constraint_set.make_exn base pairs in
    Shared_index.memoized index ~base ~algorithm base cs (fun () ->
        incr runs;
        Algorithms.cut algorithm base cs)
  in
  let pq = solve [ p; q ] in
  let qp = solve [ q; p ] in
  Alcotest.(check int) "both orders solved" 2 !runs;
  Alcotest.(check bool) "separate outcomes" true (pq != qp);
  Alcotest.(check bool) "[p; q] again is the memoized outcome" true
    (solve [ p; q ] == pq);
  Alcotest.(check bool) "[q; p] again is the memoized outcome" true
    (solve [ q; p ] == qp);
  Alcotest.(check int) "no further solves" 2 !runs

(* The randomized solver draws from the session generator: it must
   never be memoized, and stays a function of the engine seed. *)
let test_memo_skips_random () =
  let i = instance ~n_vertices:40 31 in
  let wf = i.Generator.workflow in
  let pairs = connected_pairs wf 3 in
  let algorithm = Algorithms.Remove_random_edge in
  let run () =
    let engine = Engine.create ~algorithm ~seed:41 wf in
    for u = 0 to 9 do
      Engine.submit engine ~user:(Printf.sprintf "user-%d" u) (Engine.Add pairs)
    done;
    drain_ok engine;
    engine
  in
  let a = run () and b = run () in
  Alcotest.(check int) "no memo hits" 0 (memo_counter a "hit");
  Alcotest.(check int) "no memo lookups" 0 (memo_counter a "miss");
  Alcotest.(check int) "one solver run per user" 10 (solve_runs a);
  let cs = Constraint_set.make_exn wf (List.sort_uniq compare pairs) in
  List.iter
    (fun (user, s) ->
      let rng = Splitmix.create (Engine.session_seed a user) in
      let options =
        { Algorithms.Options.default with Algorithms.Options.rng = Some rng }
      in
      let direct = Algorithms.solve ~options algorithm wf cs in
      Alcotest.(check (list int)) (user ^ ": seeded direct solve")
        (live_ids direct.Algorithms.workflow) (live_ids (Session.workflow s));
      Alcotest.(check int64) (user ^ ": generator advanced as a direct solve's")
        (Splitmix.state rng) (Session.rng_state s);
      Alcotest.(check (list int)) (user ^ ": same cuts on a rerun")
        (Session.cut_ids s) (Session.cut_ids (Engine.session b user)))
    (Engine.sessions a)

(* Two users share one memoized outcome; one withdrawing a constraint
   re-solves that user alone and leaves the other's cuts untouched. *)
let test_memo_withdraw_isolated () =
  let i = instance ~n_vertices:40 37 in
  let wf = i.Generator.workflow in
  let pairs = connected_pairs wf 3 in
  let engine = Engine.create ~algorithm:Algorithms.Remove_min_mc wf in
  Engine.submit engine ~user:"a" (Engine.Add pairs);
  Engine.submit engine ~user:"b" (Engine.Add pairs);
  drain_ok engine;
  let a = Engine.session engine "a" and b = Engine.session engine "b" in
  Alcotest.(check bool) "the outcome's workflow is shared" true
    (Session.workflow a == Session.workflow b);
  let b_cuts = Session.cut_ids b and b_live = live_ids (Session.workflow b) in
  Engine.submit engine ~user:"a" (Engine.Withdraw [ List.hd pairs ]);
  drain_ok engine;
  Alcotest.(check bool) "a moved off the shared outcome" true
    (Session.workflow a != Session.workflow b);
  Alcotest.(check (list int)) "b's cuts unchanged" b_cuts (Session.cut_ids b);
  Alcotest.(check (list int)) "b's workflow unchanged" b_live
    (live_ids (Session.workflow b))

(* Incremental sessions can differ from batch (DESIGN.md §17): a user
   whose pairs arrive one drain at a time gets an order-greedy cut —
   [Incremental.update] solves only the pairs the current cut leaves
   connected — which can be strictly worse than one exact solve of the
   whole set. Seed 16 is such an instance for remove-min-mc. *)
let dense_instance seed =
  (Generator.generate ~seed
     {
       Cdw_workload.Gen_params.default with
       Cdw_workload.Gen_params.n_vertices = 40;
       n_constraints = 0;
       stages = 4;
       density = 0.15;
     })
    .Generator.workflow

let test_incremental_is_order_greedy () =
  let wf = dense_instance 16 in
  let pairs = [ (3, 38); (6, 38) ] in
  let exact =
    match Constraint_set.make wf pairs with
    | Ok cs -> (Algorithms.solve Algorithms.Exact_ilp wf cs).Algorithms.utility_after
    | Error e -> Alcotest.failf "constraint set: %s" e
  in
  let engine = Engine.create ~algorithm:Algorithms.Remove_min_mc ~seed:16 wf in
  List.iter
    (fun p ->
      Engine.submit engine ~user:"u" (Engine.Add [ p ]);
      ignore (Engine.drain engine))
    pairs;
  let incremental = Session.utility (Engine.session engine "u") in
  if incremental >= exact -. 1e-9 then
    Alcotest.failf "incremental cut (%.1f) is not worse than batch (%.1f)"
      incremental exact

(* Replay's handler for old ledgers' [Cut_refined] records: the cut is
   installed on a resident session in place, and on a parked record
   without hydrating it. *)
let test_apply_refined_resident_and_parked () =
  let wf = dense_instance 31 in
  let pairs = connected_pairs wf 3 in
  let better =
    match Constraint_set.make wf pairs with
    | Ok cs ->
        (Algorithms.solve Algorithms.Exact_ilp wf cs).Algorithms.workflow
        |> Workflow.graph |> Digraph.removed_edge_ids |> List.sort compare
    | Error e -> Alcotest.failf "constraint set: %s" e
  in
  let engine = Engine.create ~algorithm:Algorithms.Remove_last_edge wf in
  let cuts user =
    match
      List.find_opt (fun (u, _, _) -> u = user) (Engine.session_states engine)
    with
    | Some (_, _, cuts) -> cuts
    | None -> Alcotest.failf "user %s has no state" user
  in
  List.iter
    (fun user -> Engine.submit engine ~user (Engine.Add pairs))
    [ "hot"; "cold" ];
  ignore (Engine.drain engine);
  Alcotest.(check bool) "the heuristic cut differs" true (cuts "hot" <> better);
  (match Engine.apply_refined engine "hot" ~cuts:better with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check (list int)) "resident cut replaced" better (cuts "hot");
  (* A 1-byte cap parks every session at once. *)
  Engine.set_mem_cap ~session_bytes:1024 engine (Some 1);
  (match Engine.apply_refined engine "cold" ~cuts:better with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check (list int)) "parked cut replaced" better (cuts "cold");
  Alcotest.(check bool) "still parked" true (Engine.sessions engine = []);
  Alcotest.(check int) "never hydrated" 0
    (Option.get (Engine.tier_stats engine)).Cdw_engine.Tier.hydrations;
  Alcotest.(check bool) "an unknown user is an error" true
    (Result.is_error (Engine.apply_refined engine "nobody" ~cuts:better))

(* The drain's [Add] pre-check is a range-and-kind check over the
   pairs, with no sort and no table; it must accept exactly the lists
   the session's own validation (sort-unique, then [make]) accepts, so a
   coalesced batch never fails where its requests alone would not. The
   lists mix valid pairs with out-of-range ids, user→user and
   purpose→purpose pairs, duplicates and [], and the shared pair
   compare must order each one as polymorphic [compare] does. *)
let prop_add_precheck_matches_make =
  Test_helpers.qcheck ~count:60 "Add pre-check accepts what make accepts"
    QCheck2.Gen.(int_bound 100000)
    (fun seed ->
      let wf = (Test_helpers.random_instance ~seed).Generator.workflow in
      let rng = Splitmix.create seed in
      let n = Workflow.n_vertices wf in
      let pick l = List.nth l (Splitmix.int rng (List.length l)) in
      let users = Workflow.users wf and purposes = Workflow.purposes wf in
      let any () =
        match Splitmix.int rng 3 with
        | 0 -> -1 - Splitmix.int rng 3
        | 1 -> n + Splitmix.int rng 3
        | _ -> Splitmix.int rng n
      in
      let pair () =
        match Splitmix.int rng 8 with
        | 0 | 1 | 2 | 3 | 4 -> (pick users, pick purposes)
        | 5 -> (pick users, pick users)
        | 6 -> (pick purposes, pick purposes)
        | _ -> (any (), any ())
      in
      let list () =
        let rec go acc k =
          if k = 0 then acc
          else
            let p =
              if acc <> [] && Splitmix.int rng 4 = 0 then pick acc else pair ()
            in
            go (p :: acc) (k - 1)
        in
        go [] (Splitmix.int rng 6)
      in
      let sign x = compare x 0 in
      List.for_all
        (fun ps ->
          List.for_all (Constraint_set.valid_pair wf) ps
          = Result.is_ok (Constraint_set.make wf (List.sort_uniq compare ps))
          && List.sort Constraint_set.compare_pair ps = List.sort compare ps
          && List.for_all
               (fun p ->
                 List.for_all
                   (fun q ->
                     sign (Constraint_set.compare_pair p q) = sign (compare p q))
                   ps)
               ps)
        (List.init 50 (fun _ -> list ())))

let suite =
  [
    test_snapshot_matches_bfs;
    test_live_paths_equal_fresh;
    ("engine matches fresh solve", `Quick, test_engine_matches_fresh);
    ("withdrawal invalidation", `Quick, test_withdrawal_invalidation);
    ("coalesced net change", `Quick, test_coalescing_net_change);
    ("parallel == sequential drain", `Quick, test_parallel_equals_sequential);
    ("withdraw of never-accepted pair is a clean error", `Quick, test_withdraw_unknown_pair);
    ("metrics exact moments (stream and merge)", `Quick, test_metrics_exact_moments);
    ("metrics json", `Quick, test_metrics_json);
    ( "metrics merge preserves .error counters",
      `Quick,
      test_merge_preserves_error_counters );
    ("solve memo: one solver run per preference type", `Quick, test_memo_one_solve_per_type);
    ("solve memo: [p; q] and [q; p] are separate entries", `Quick, test_memo_key_keeps_order);
    prop_cuts_key_matches_scan;
    prop_add_precheck_matches_make;
    ("solve memo: remove-random-edge bypasses it", `Quick, test_memo_skips_random);
    ("solve memo: a withdrawal leaves sharers untouched", `Quick, test_memo_withdraw_isolated);
    ( "remove-min-mc: an incremental cut can be worse than batch",
      `Quick,
      test_incremental_is_order_greedy );
    ( "apply_refined: resident in place, parked without hydrating",
      `Quick,
      test_apply_refined_resident_and_parked );
  ]
