(* A day in the life of a consent service, served by [Cdw_shard.Serving]
   — the value the CLI, the network server and the benchmark serve
   through. Users submit refusals, a drain answers them, users who share
   a preference type share one solve (the per-epoch solve memo, the
   paper's §8 "many users, few preference types"), and a withdrawal
   gives a user their consented utility back.

   Run with: dune exec examples/consent_service.exe *)

open Cdw_core
module Generator = Cdw_workload.Generator
module Gen_params = Cdw_workload.Gen_params
module Engine = Cdw_engine.Engine
module Metrics = Cdw_engine.Metrics
module Session = Cdw_engine.Session
module Serving = Cdw_shard.Serving

let () =
  (* The provider's workflow: 60 vertices over 4 stages. *)
  let instance =
    Generator.generate ~seed:7
      {
        Gen_params.default with
        Gen_params.n_vertices = 60;
        stages = 4;
        n_constraints = 0;
        density = 0.08;
      }
  in
  let wf = instance.Generator.workflow in
  Format.printf "Provider workflow: %a@." Workflow.pp wf;
  Format.printf "Baseline utility: %.1f@.@." (Utility.total wf);

  (* Refusals a user can state: (user, purpose) pairs with a path. *)
  let g = Workflow.graph wf in
  let connected k offset =
    List.concat_map
      (fun s -> List.map (fun t -> (s, t)) (Workflow.purposes wf))
      (List.filteri (fun i _ -> (i + offset) mod 3 = 0) (Workflow.users wf))
    |> List.filter (fun (s, t) -> Cdw_graph.Reach.exists_path g s t)
    |> List.filteri (fun i _ -> i < k)
  in
  let serving = Serving.create wf in
  let drain () =
    List.iter
      (fun (r : Engine.reply) ->
        match r.Engine.result with
        | Ok () -> ()
        | Error e -> failwith (r.Engine.user ^ ": " ^ e))
      (Serving.drain serving)
  in
  let memo () =
    let m = Serving.metrics serving in
    (Metrics.counter m "solve.memo.miss", Metrics.counter m "solve.memo.hit")
  in
  let utility user = Session.utility (Serving.session serving user) in

  (* --- Morning: four users arrive together, three of them of one
     preference type. The drain solves users in parallel, and users of
     one type wait for the first one's solve instead of repeating it. --- *)
  let type_a = connected 2 0 and type_b = connected 4 1 in
  let morning =
    [ ("alice", type_a); ("bob", type_a); ("carol", type_b); ("dave", type_a) ]
  in
  List.iter
    (fun (user, pairs) -> Serving.submit serving ~user (Engine.Add pairs))
    morning;
  drain ();
  let misses, hits = memo () in
  Format.printf "Morning drain: %d users -> %d solves, %d memo hits@."
    (List.length morning) misses hits;
  List.iter
    (fun (user, _) -> Format.printf "  %s keeps utility %.1f@." user (utility user))
    morning;

  (* --- Afternoon: erin tightens their preferences one refusal at a time. --- *)
  Format.printf "@.erin, one refusal per drain:@.";
  let erin = connected 5 2 in
  List.iteri
    (fun step pair ->
      Serving.submit serving ~user:"erin" (Engine.Add [ pair ]);
      drain ();
      Format.printf "  step %d: utility %.1f, cuts %d@." (step + 1)
        (utility "erin")
        (List.length (Session.cut_ids (Serving.session serving "erin"))))
    erin;

  (* --- Evening: erin withdraws the first refusal. --- *)
  Serving.submit serving ~user:"erin" (Engine.Withdraw [ List.hd erin ]);
  drain ();
  Format.printf "  withdrawal: utility %.1f@." (utility "erin");

  let misses, hits = memo () in
  Format.printf "@.Solve memo over the day: %d misses, %d hits, %d users served@."
    misses hits
    (List.length (Serving.session_states serving));
  Serving.close serving
