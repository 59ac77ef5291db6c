(* Anytime refinement's correctness obligation: a journaled run served
   with the background refiner on recovers bit-identically — the replay
   applies the [Cut_refined] records at exactly the live install points,
   so the recovered state equals the served state across shard counts
   {1, 2, 4}, seeds, and warm/cold tiers (the PR-7/PR-9 gate pattern).
   Plus the protocol's unit obligations: install happens at the next
   drain boundary and is journaled, forget clears staged work, an epoch
   migration discards it, and a parked user is refined in place. *)

open Cdw_core
module Engine = Cdw_engine.Engine
module Evolve = Cdw_workload.Evolve
module Gen_params = Cdw_workload.Gen_params
module Generator = Cdw_workload.Generator
module Serving = Cdw_shard.Serving
module Shard_bench = Cdw_shard.Shard_bench
module Traffic = Cdw_workload.Traffic
module Workbench = Cdw_engine.Workbench

let workflow seed =
  (Generator.generate ~seed
     {
       Gen_params.default with
       Gen_params.n_vertices = 40;
       n_constraints = 0;
       stages = 4;
       density = 0.15;
     })
    .Generator.workflow

(* remove-last-edge is the weakest deterministic heuristic in the
   ladder — the refiner finds strictly better cuts for most sessions,
   so the gate actually exercises staging, install and replay rather
   than passing vacuously with zero improvements. *)
let algorithm = Algorithms.Remove_last_edge

let spec_for seed =
  {
    Traffic.default with
    Traffic.users = 40;
    requests = 400;
    churn = 0.1;
    arrival = Traffic.Poisson 2_000.0;
    seed;
  }

let session_bytes = 1024

let temp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "cdw_refine_%d_%d" (Unix.getpid ()) !counter)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let with_dir f =
  let dir = temp_dir () in
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* ---------------------------------------------------------------- *)
(* The differential gate                                              *)

let run_refined ~dir ~shards ~seed ~mem_cap spec wf =
  let serving = Serving.create ~algorithm ~seed ~shards wf in
  Serving.journal ~dir serving;
  Option.iter
    (fun cap -> Serving.set_mem_cap ~session_bytes serving (Some cap))
    mem_cap;
  let run =
    Shard_bench.serve_traffic ~refine:true
      (Shard_bench.in_process (fun () -> serving))
      spec
  in
  let states = Serving.session_states serving in
  let stats = Serving.refine_stats serving in
  Serving.close serving;
  (run, states, stats)

let test_recovery_differential () =
  List.iter
    (fun seed ->
      let wf = workflow (2000 + seed) in
      let spec = spec_for seed in
      List.iter
        (fun shards ->
          List.iter
            (fun mem_cap ->
              let tag what =
                Printf.sprintf "%s (seed %d, %d shard(s), %s)" what seed
                  shards
                  (match mem_cap with
                  | None -> "warm"
                  | Some _ -> "cold tier")
              in
              with_dir (fun dir ->
                  let run, served_states, stats =
                    run_refined ~dir ~shards ~seed ~mem_cap spec wf
                  in
                  if run.Shard_bench.t_errors > 0 then
                    Alcotest.failf "%s: %d request errors" (tag "serve")
                      run.Shard_bench.t_errors;
                  (* Non-vacuity: the run must have installed refined
                     cuts, or the gate proves nothing. *)
                  (match stats with
                  | None -> Alcotest.failf "%s: refinement off" (tag "serve")
                  | Some s ->
                      if s.Engine.rs_installed = 0 then
                        Alcotest.failf "%s: nothing installed" (tag "serve");
                      if s.Engine.rs_utility_reclaimed <= 0.0 then
                        Alcotest.failf "%s: nothing reclaimed" (tag "serve"));
                  match Serving.resume dir with
                  | Error e ->
                      Alcotest.failf "%s: resume: %s" (tag "recover") e
                  | Ok r ->
                      if r.Serving.damaged <> [] then
                        Alcotest.failf "%s: damaged shards" (tag "recover");
                      let recovered_states =
                        Serving.session_states r.Serving.serving
                      in
                      Serving.close r.Serving.serving;
                      if served_states <> recovered_states then
                        Alcotest.failf "%s"
                          (tag "recovered state diverges from served state")))
            [ None; Some (8 * session_bytes) ])
        [ 1; 2; 4 ])
    [ 0; 1; 2 ]

(* ---------------------------------------------------------------- *)
(* Protocol unit obligations (single engine)                          *)

let engine_with_session ?(pairs_for = 6) seed =
  let wf = workflow seed in
  let pairs = Workbench.connected_pairs wf in
  let engine = Engine.create ~algorithm ~seed wf in
  Engine.set_refine engine true;
  let chosen =
    List.init pairs_for (fun i -> pairs.(i * 3 mod Array.length pairs))
  in
  Engine.submit engine ~user:"u" (Engine.Add chosen);
  ignore (Engine.drain engine);
  (wf, engine)

let session_cuts engine user =
  match
    List.find_opt (fun (u, _, _) -> u = user) (Engine.session_states engine)
  with
  | Some (_, _, cuts) -> cuts
  | None -> Alcotest.failf "user %s has no state" user

let test_install_at_drain_boundary () =
  let _, engine = engine_with_session 31 in
  let before = session_cuts engine "u" in
  Alcotest.(check int) "queued for refinement" 1 (Engine.refine_pending engine);
  Alcotest.(check int) "one background solve" 1 (Engine.refine_step engine);
  let stats () = Option.get (Engine.refine_stats engine) in
  Alcotest.(check int) "improvement staged" 1 (stats ()).Engine.rs_staged;
  (* Staged, not installed: the session is untouched until a drain. *)
  Alcotest.(check bool) "cut unchanged before the boundary" true
    (session_cuts engine "u" = before);
  let refined = ref [] in
  Engine.set_journal engine
    (Some
       (function
       | Engine.Cut_refined { user; cuts } -> refined := (user, cuts) :: !refined
       | _ -> ()));
  (* An empty drain is still an install boundary. *)
  ignore (Engine.drain engine);
  Alcotest.(check int) "installed at the boundary" 1
    (stats ()).Engine.rs_installed;
  Alcotest.(check bool) "reclaimed utility is positive" true
    ((stats ()).Engine.rs_utility_reclaimed > 0.0);
  (match !refined with
  | [ (user, cuts) ] ->
      Alcotest.(check string) "journaled for the right user" "u" user;
      Alcotest.(check bool) "journaled cuts are the installed cuts" true
        (List.sort compare cuts = session_cuts engine "u")
  | l -> Alcotest.failf "%d Cut_refined events" (List.length l));
  Alcotest.(check bool) "cut actually changed" true
    (session_cuts engine "u" <> before)

let test_forget_clears_staged () =
  let _, engine = engine_with_session 32 in
  ignore (Engine.refine_step engine);
  Engine.forget engine "u";
  ignore (Engine.drain engine);
  let s = Option.get (Engine.refine_stats engine) in
  Alcotest.(check int) "nothing installed after forget" 0 s.Engine.rs_installed;
  Alcotest.(check bool) "no state resurrected" true
    (Engine.session_states engine = [])

let test_migration_discards_staged () =
  let wf, engine = engine_with_session 33 in
  ignore (Engine.refine_step engine);
  let next =
    Evolve.mutate { Evolve.default_step with Evolve.seed = 5 } wf
  in
  ignore (Engine.migrate engine next);
  let s = Option.get (Engine.refine_stats engine) in
  Alcotest.(check int) "staged work discarded by the epoch" 0 s.Engine.rs_staged;
  Alcotest.(check bool) "discard counted" true (s.Engine.rs_discarded > 0);
  ignore (Engine.drain engine);
  Alcotest.(check int) "nothing installed cross-epoch" 0
    (Option.get (Engine.refine_stats engine)).Engine.rs_installed

let test_parked_user_refined_in_place () =
  let _, engine = engine_with_session 34 in
  ignore (Engine.refine_step engine);
  (* Park the session before the install boundary: the staged cut must
     land in the parked record without hydrating the session. A 1-byte
     cap is below any session footprint, so everything parks. *)
  Engine.set_mem_cap ~session_bytes engine (Some 1);
  Alcotest.(check bool) "session is parked" true
    (Engine.sessions engine = []);
  let before = session_cuts engine "u" in
  ignore (Engine.drain engine);
  let s = Option.get (Engine.refine_stats engine) in
  Alcotest.(check int) "installed while parked" 1 s.Engine.rs_installed;
  Alcotest.(check bool) "still parked" true (Engine.sessions engine = []);
  Alcotest.(check bool) "parked cut changed" true
    (session_cuts engine "u" <> before)

let suite =
  [
    ( "differential: refined serving recovers bit-identically \
       (shards 1/2/4 × seeds × warm/cold)",
      `Slow,
      test_recovery_differential );
    ( "install lands at the next drain boundary, journaled",
      `Quick,
      test_install_at_drain_boundary );
    ("forget clears staged refinements", `Quick, test_forget_clears_staged);
    ( "epoch migration discards staged refinements",
      `Quick,
      test_migration_discards_staged );
    ("parked users are refined in place", `Quick, test_parked_user_refined_in_place);
  ]
