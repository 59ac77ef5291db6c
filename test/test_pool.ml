(* The parked-domain pool behind the one-shard drain's fan-out, and the
   shared state the fan-out leans on: helpers are spawned once and
   reused, closed pools leave no domain behind, a raising task leaves
   the pool usable, users of one type in one cold drain solve that
   type once, the metrics registry and the index caches stay exact
   under racing domains, and a warmed-up script takes neither the
   registry lock nor the index lock. *)

open Cdw_core
module Domain_pool = Cdw_engine.Domain_pool
module Engine = Cdw_engine.Engine
module Metrics = Cdw_engine.Metrics
module Serving = Cdw_shard.Serving
module Shared_index = Cdw_engine.Shared_index
module Generator = Cdw_workload.Generator
module Gen_params = Cdw_workload.Gen_params
module Reach = Cdw_graph.Reach
module Json = Cdw_util.Json
module Trace = Cdw_obs.Trace

let instance seed =
  Generator.generate ~seed
    {
      Gen_params.default with
      Gen_params.n_vertices = 40;
      n_constraints = 0;
      stages = 3;
    }

let connected_pairs wf k =
  let g = Workflow.graph wf in
  List.concat_map
    (fun s ->
      List.filter_map
        (fun t -> if Reach.exists_path g s t then Some (s, t) else None)
        (Workflow.purposes wf))
    (Workflow.users wf)
  |> List.filteri (fun i _ -> i < k)

(* [drains] drains of [users] users each (so every drain fans out), on a
   one-shard serving value that is closed before returning. *)
let serve_drains ?(users = 6) ~drains wf =
  let pairs = Array.of_list (connected_pairs wf 12) in
  let serving =
    Serving.create ~algorithm:Algorithms.Remove_first_edge ~seed:5 wf
  in
  Fun.protect
    ~finally:(fun () -> Serving.close serving)
    (fun () ->
      for d = 0 to drains - 1 do
        for u = 0 to users - 1 do
          let pair = pairs.((d + u) mod Array.length pairs) in
          Serving.submit serving
            ~user:(Printf.sprintf "user-%d" u)
            (if d mod 2 = 0 then Engine.Add [ pair ] else Engine.Resolve)
        done;
        List.iter
          (fun (r : Engine.reply) ->
            match r.Engine.result with
            | Ok () -> ()
            | Error e -> Alcotest.fail e)
          (Serving.drain serving)
      done)

let traced f =
  Trace.reset ();
  Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.reset ())
    f

let width () = Domain_pool.domains (Domain_pool.create ())

(* The tids of every recorded [engine.user_batch] span: the domains the
   fan-out ran its tasks on. *)
let user_batch_domains () =
  let events =
    Option.get
      (Option.bind (Json.member "traceEvents" (Trace.export ())) Json.to_list)
  in
  List.filter_map
    (fun ev ->
      match
        ( Option.bind (Json.member "name" ev) Json.to_text,
          Option.bind (Json.member "tid" ev) Json.to_float )
      with
      | Some "engine.user_batch", Some tid -> Some (int_of_float tid)
      | _ -> None)
    events
  |> List.sort_uniq compare

let test_fanout_reuses_domains () =
  let wf = (instance 3).Generator.workflow in
  let domains =
    traced (fun () ->
        serve_drains ~drains:200 wf;
        user_batch_domains ())
  in
  Alcotest.(check bool) "the fan-out ran tasks" true (domains <> []);
  Alcotest.(check bool)
    (Printf.sprintf "200 drains ran on %d domains, at most %d"
       (List.length domains) (width ()))
    true
    (List.length domains <= width ())

let test_trace_buffers_bounded () =
  let wf = (instance 5).Generator.workflow in
  let before = Trace.buffer_count () in
  traced (fun () -> serve_drains ~drains:200 wf);
  let added = Trace.buffer_count () - before in
  Alcotest.(check bool)
    (Printf.sprintf "200 traced drains added %d trace buffers, at most %d"
       added (width () - 1))
    true
    (added <= width () - 1)

(* Past the runtime's limit of 128 live domains if a single helper per
   cycle were left running. *)
let test_close_joins_helpers () =
  let wf = (instance 7).Generator.workflow in
  for _ = 1 to 150 do
    serve_drains ~drains:1 wf
  done

exception Task of int

let test_raise_then_reuse () =
  let pool = Domain_pool.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Domain_pool.close pool)
    (fun () ->
      let ran = Atomic.make 0 in
      let tasks =
        Array.init 8 (fun i () ->
            Atomic.incr ran;
            if i = 3 || i = 6 then raise (Task i);
            i)
      in
      (match Domain_pool.run pool tasks with
      | _ -> Alcotest.fail "a raising batch returned"
      | exception Task i ->
          Alcotest.(check int) "the lowest failing task's exception" 3 i);
      Alcotest.(check int) "every task ran" 8 (Atomic.get ran);
      let squares = Domain_pool.run pool (Array.init 8 (fun i () -> i * i)) in
      Alcotest.(check (array int))
        "the same pool serves the next run, in task order"
        (Array.init 8 (fun i -> i * i))
        squares)

(* N fresh users of k preference types in one cold fan-out drain: the
   first user to reach a type solves it, the others wait for that
   answer. *)
let test_single_flight_memo () =
  let wf = (instance 11).Generator.workflow in
  let pairs = connected_pairs wf 9 in
  let types =
    List.init 3 (fun t -> List.filteri (fun i _ -> i / 3 = t) pairs)
  in
  let k = List.length types and n = 12 in
  for round = 1 to 20 do
    let serving =
      Serving.create ~algorithm:Algorithms.Remove_min_mc ~seed:round wf
    in
    Fun.protect
      ~finally:(fun () -> Serving.close serving)
      (fun () ->
        for u = 0 to n - 1 do
          Serving.submit serving
            ~user:(Printf.sprintf "user-%d" u)
            (Engine.Add (List.nth types (u mod k)))
        done;
        ignore (Serving.drain serving);
        let m = Serving.metrics serving in
        Alcotest.(check int)
          (Printf.sprintf "round %d: one miss per type" round)
          k
          (Metrics.counter m "solve.memo.miss");
        Alcotest.(check int)
          (Printf.sprintf "round %d: every other user a hit" round)
          (n - k)
          (Metrics.counter m "solve.memo.hit");
        let cut u =
          Cdw_engine.Session.cut_ids
            (Serving.session serving (Printf.sprintf "user-%d" u))
        in
        for u = k to n - 1 do
          Alcotest.(check (list int))
            (Printf.sprintf "round %d: user-%d cut as its type's first user"
               round u)
            (cut (u mod k)) (cut u)
        done)
  done

(* ---------------------------------------------------------------- *)
(* Racing domains on the shared registry and the index caches          *)

(* [tasks] on a pool [width] wide, each task held at a start line until
   [width] tasks have reached it (or 2 s have passed, should the pool
   run them one after another), so that they race. Checks that they
   ran on more than one domain. *)
let race ~width tasks =
  let pool = Domain_pool.create ~domains:width () in
  let arrived = Atomic.make 0 and n = min width (Array.length tasks) in
  let results =
    Fun.protect
      ~finally:(fun () -> Domain_pool.close pool)
      (fun () ->
        Domain_pool.run pool
          (Array.map
             (fun task () ->
               Atomic.incr arrived;
               let t0 = Unix.gettimeofday () in
               while
                 Atomic.get arrived < n && Unix.gettimeofday () -. t0 < 2.0
               do
                 Domain.cpu_relax ()
               done;
               ((Domain.self () :> int), task ()))
             tasks))
  in
  let domains =
    List.sort_uniq compare (Array.to_list (Array.map fst results))
  in
  Alcotest.(check bool)
    (Printf.sprintf "tasks ran on %d domains" (List.length domains))
    true
    (List.length domains >= 2);
  Array.map snd results

(* Task [i]'s calls on a registry: counters, latency samples on shared
   and private keys, a merge of a registry of its own, and readers
   racing the other tasks' writes. Samples are multiples of 1/8 below
   13, so every sum is exact in any order and only the variance of a
   key recorded by several domains can round differently. *)
let metrics_script i m =
  for j = 0 to 999 do
    Metrics.incr m (Printf.sprintf "c%d" (j mod 7));
    Metrics.record_ms m
      (Printf.sprintf "k%d" (j mod 3))
      (float_of_int (((i * 31) + (j * 17)) mod 97) /. 8.0)
  done;
  Metrics.incr ~by:i m "by";
  Metrics.record_all_ms m
    (Printf.sprintf "own%d" i)
    [ 0.5; 1.0; float_of_int i ];
  let src = Metrics.create () in
  Metrics.incr ~by:2 src "merged";
  Metrics.set_gauge src "level" (float_of_int i);
  Metrics.record_ms src "k0" (float_of_int i);
  Metrics.record_ms src (Printf.sprintf "half%d" (i mod 2)) 0.25;
  Metrics.merge_into ~into:m src;
  ignore (Metrics.to_json m);
  ignore (Metrics.prometheus m)

(* Equal JSON, numbers within a relative 1e-9. *)
let rec json_close a b =
  match (a, b) with
  | Json.Number x, Json.Number y ->
      x = y
      || Float.abs (x -. y) <= 1e-9 *. Float.max (Float.abs x) (Float.abs y)
  | Json.Object xs, Json.Object ys ->
      List.length xs = List.length ys
      && List.for_all2 (fun (k, x) (k', y) -> k = k' && json_close x y) xs ys
  | Json.Array xs, Json.Array ys ->
      List.length xs = List.length ys && List.for_all2 json_close xs ys
  | a, b -> a = b

let test_metrics_race () =
  let n = 16 in
  let expected = Metrics.create () in
  for i = 0 to n - 1 do
    metrics_script i expected
  done;
  List.iter
    (fun width ->
      let m = Metrics.create () in
      ignore (race ~width (Array.init n (fun i () -> metrics_script i m)));
      let what = Printf.sprintf "%d domains" width in
      let counters r =
        List.map
          (fun k -> (k, Metrics.counter r k))
          [ "c0"; "c6"; "by"; "merged" ]
      in
      Alcotest.(check (list (pair string int)))
        (what ^ ": counters") (counters expected) (counters m);
      Alcotest.(check bool)
        (what ^ ": to_json equals the sequential run's")
        true
        (json_close (Metrics.to_json expected) (Metrics.to_json m));
      Alcotest.(check string)
        (what ^ ": prometheus equals the sequential run's")
        (Metrics.prometheus expected) (Metrics.prometheus m);
      let group = Metrics.create () and group' = Metrics.create () in
      Metrics.merge_into ~into:group expected;
      Metrics.merge_into ~into:group' m;
      Alcotest.(check string)
        (what ^ ": a merged copy equals the sequential run's")
        (Metrics.prometheus group) (Metrics.prometheus group'))
    [ 2; 4 ]

let index_instance () =
  (Generator.generate ~seed:19
     { Gen_params.default with Gen_params.n_vertices = 80; n_constraints = 0 })
    .Generator.workflow

let test_index_racing_inserts () =
  let wf = index_instance () in
  let index = Shared_index.create wf in
  let base = Shared_index.base index in
  let source, target = List.hd (connected_pairs base 1) in
  let paths =
    race ~width:4
      (Array.make 4 (fun () ->
           Shared_index.live_paths index base ~source ~target))
  in
  Alcotest.(check bool) "every domain read the same paths" true
    (Array.for_all (( = ) paths.(0)) paths);
  Alcotest.(check int) "one path entry" 1
    (fst (Shared_index.cache_sizes index));
  let cs = [ { Constraint_set.source; target } ] in
  let solves = Atomic.make 0 in
  let cuts =
    race ~width:4
      (Array.make 4 (fun () ->
           Shared_index.memoized index ~base
             ~algorithm:Algorithms.Remove_first_edge base cs (fun () ->
               Atomic.incr solves;
               Algorithms.cut Algorithms.Remove_first_edge base cs)))
  in
  Alcotest.(check int) "one solve" 1 (Atomic.get solves);
  Alcotest.(check bool) "every domain got the one cut" true
    (Array.for_all (fun c -> c == cuts.(0)) cuts);
  Alcotest.(check int) "one memo entry" 1 (snd (Shared_index.cache_sizes index))

(* 6320 distinct path pairs and 6000 distinct memo keys, inserted from
   four racing domains: each table stops at exactly 4096 entries, and
   then still finds every key it holds. *)
let test_index_bounds () =
  let wf = index_instance () in
  let index = Shared_index.create wf in
  let base = Shared_index.base index in
  let n = Workflow.n_vertices base in
  Alcotest.(check bool) "more vertex pairs than the bound" true
    (n * (n - 1) > 4096);
  ignore
    (race ~width:4
       (Array.init 4 (fun d () ->
            for s = 0 to n - 1 do
              if s mod 4 = d then
                for t = 0 to n - 1 do
                  if s <> t then
                    ignore
                      (Shared_index.live_paths index base ~source:s ~target:t)
                done
            done)));
  Alcotest.(check int) "path pairs stop at 4096" 4096
    (fst (Shared_index.cache_sizes index));
  let cut = Algorithms.cut Algorithms.Remove_first_edge base [] in
  ignore
    (race ~width:4
       (Array.init 4 (fun d () ->
            for k = 0 to 1499 do
              let cs = [ { Constraint_set.source = d; target = k } ] in
              ignore
                (Shared_index.memoized index ~base
                   ~algorithm:Algorithms.Remove_first_edge base cs (fun () ->
                     cut))
            done)));
  Alcotest.(check int) "memo entries stop at 4096" 4096
    (snd (Shared_index.cache_sizes index));
  (* Full tables still answer, with every bucket at its longest chain:
     each key is asked once more, so 4096 finds mean every admitted key
     is found again, and every refused key misses. *)
  let m = Shared_index.metrics index in
  let count name = Metrics.counter m name in
  let hits = count "index.paths.hit" and misses = count "index.paths.miss" in
  for s = 0 to n - 1 do
    for t = 0 to n - 1 do
      if s <> t then
        ignore (Shared_index.live_paths index base ~source:s ~target:t)
    done
  done;
  Alcotest.(check (pair int int)) "every admitted path pair hits again"
    (4096, (n * (n - 1)) - 4096)
    (count "index.paths.hit" - hits, count "index.paths.miss" - misses);
  let solved = ref 0 in
  let memo_hits = count "solve.memo.hit" in
  for d = 0 to 3 do
    for k = 0 to 1499 do
      let cs = [ { Constraint_set.source = d; target = k } ] in
      ignore
        (Shared_index.memoized index ~base
           ~algorithm:Algorithms.Remove_first_edge base cs (fun () ->
             incr solved;
             cut))
    done
  done;
  Alcotest.(check (pair int int)) "every admitted memo key skips its thunk"
    (4096, 6000 - 4096)
    (count "solve.memo.hit" - memo_hits, !solved);
  Alcotest.(check (pair int int)) "re-asks leave both tables as they were"
    (4096, 4096) (Shared_index.cache_sizes index)

(* The same script served twice on one serving value, the second time
   for new users: every name is registered and every solve and path
   set cached by the first pass, so the second, all hits, never takes
   the registry lock or the index lock. Counts, not timings: the guard
   does not depend on the host's speed. *)
let test_warm_pass_takes_no_lock () =
  let wf = (instance 11).Generator.workflow in
  let pairs = connected_pairs wf 9 in
  let types =
    List.init 3 (fun t -> List.filteri (fun i _ -> i / 3 = t) pairs)
  in
  let serving =
    Serving.create ~algorithm:Algorithms.Remove_first_edge ~seed:3 wf
  in
  Fun.protect
    ~finally:(fun () -> Serving.close serving)
    (fun () ->
      let engine = (Serving.engines serving).(0) in
      let locks () =
        ( Metrics.lock_entries (Engine.metrics engine),
          Shared_index.lock_entries (Engine.index engine) )
      in
      let pass tag =
        for u = 0 to 11 do
          Serving.submit serving
            ~user:(Printf.sprintf "%s-%d" tag u)
            (Engine.Add (List.nth types (u mod 3)))
        done;
        ignore (Serving.drain serving);
        for u = 0 to 11 do
          Serving.submit serving
            ~user:(Printf.sprintf "%s-%d" tag u)
            Engine.Resolve
        done;
        ignore (Serving.drain serving)
      in
      pass "first";
      let registry, index = locks () in
      Alcotest.(check bool) "the first pass registered names" true
        (registry > 0);
      pass "second";
      Alcotest.(check (pair int int)) "the second pass took no lock"
        (registry, index) (locks ()))

(* Words allocated per request by a warmed-up script, served on one
   domain by [Engine.drain] with no pool: the same script twice, the
   second time for new users, so every solve and path set is cached and
   every metric registered by the first pass. The second pass's count
   depends neither on the host nor on the measured durations (it reads
   324.8 words per request), so the bound is that value plus 5%. The
   pass starts on an empty minor heap and is far smaller than one, so
   nothing is promoted during it, and it allocates nothing directly in
   the major heap. *)
let minor_words_per_request_bound = 341.0

let test_warm_pass_allocation () =
  let wf = (instance 11).Generator.workflow in
  let pairs = connected_pairs wf 9 in
  let types =
    List.init 3 (fun t -> List.filteri (fun i _ -> i / 3 = t) pairs)
  in
  let single = List.map (fun p -> [ p ]) pairs in
  let engine =
    Engine.create ~algorithm:Algorithms.Remove_first_edge ~seed:3 wf
  in
  let requests = ref 0 in
  let submit user r =
    incr requests;
    Engine.submit engine ~user r
  in
  let pass tag =
    let users = Array.init 12 (Printf.sprintf "%s-%d" tag) in
    Array.iteri
      (fun u user ->
        submit user (Engine.Add (List.nth types (u mod 3)));
        submit user (Engine.Add (List.nth single (u mod 9))))
      users;
    ignore (Engine.drain engine);
    Array.iteri
      (fun u user ->
        submit user (Engine.Add (List.nth single ((u + 4) mod 9)));
        if u mod 4 = 0 then submit user Engine.Resolve;
        submit user (Engine.Withdraw (List.nth types (u mod 3))))
      users;
    ignore (Engine.drain engine)
  in
  let traced = Trace.enabled () in
  Trace.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Trace.set_enabled traced)
    (fun () ->
      pass "first";
      requests := 0;
      Gc.minor ();
      (* [Gc.minor_words], not [Gc.counters]: on OCaml 5.1 the latter's
         minor count leaves out the words allocated since the last
         minor collection, which here is all of them. *)
      let _, promoted0, major0 = Gc.counters () in
      let minor0 = Gc.minor_words () in
      pass "second";
      let minor1 = Gc.minor_words () in
      let _, promoted1, major1 = Gc.counters () in
      let per_request = (minor1 -. minor0) /. float_of_int !requests in
      Alcotest.(check bool)
        (Printf.sprintf "%.1f minor words per request, bound %.1f" per_request
           minor_words_per_request_bound)
        true
        (per_request <= minor_words_per_request_bound);
      Alcotest.(check (pair (float 0.0) (float 0.0)))
        "no promoted and no major-heap words" (0.0, 0.0)
        (promoted1 -. promoted0, major1 -. major0))

let suite =
  [
    ("fan-out: 200 drains run on at most the pool's domains", `Quick, test_fanout_reuses_domains);
    ("fan-out: 200 traced drains add at most one buffer per helper", `Quick, test_trace_buffers_bounded);
    ("close joins the helpers: 150 create/drain/close cycles", `Quick, test_close_joins_helpers);
    ("run: lowest exception re-raised, pool reusable", `Quick, test_raise_then_reuse);
    ("memo: one cold drain solves each type once (20 rounds)", `Quick, test_single_flight_memo);
    ("metrics: racing domains read as a sequential run", `Quick, test_metrics_race);
    ("index: racing inserts of one key keep one entry", `Quick, test_index_racing_inserts);
    ("index: both caches stop at 4096 under racing inserts", `Quick, test_index_bounds);
    ("a warmed-up script takes no registry or index lock", `Quick, test_warm_pass_takes_no_lock);
    ("a warmed-up script stays under its minor-words bound", `Quick, test_warm_pass_allocation);
  ]
