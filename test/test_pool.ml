(* The parked-domain pool behind the one-shard drain's fan-out, and the
   single-flight solve memo the fan-out leans on: helpers are spawned
   once and reused, closed pools leave no domain behind, a raising task
   leaves the pool usable, and users of one type in one cold drain
   solve that type once. *)

open Cdw_core
module Domain_pool = Cdw_engine.Domain_pool
module Engine = Cdw_engine.Engine
module Metrics = Cdw_engine.Metrics
module Serving = Cdw_shard.Serving
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

let suite =
  [
    ("fan-out: 200 drains run on at most the pool's domains", `Quick, test_fanout_reuses_domains);
    ("fan-out: 200 traced drains add at most one buffer per helper", `Quick, test_trace_buffers_bounded);
    ("close joins the helpers: 150 create/drain/close cycles", `Quick, test_close_joins_helpers);
    ("run: lowest exception re-raised, pool reusable", `Quick, test_raise_then_reuse);
    ("memo: one cold drain solves each type once (20 rounds)", `Quick, test_single_flight_memo);
  ]
