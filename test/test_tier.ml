(* Session tiering's correctness obligation: a memory cap is a cache
   decision, never an observable one. The differential gate replays the
   same Zipf traffic stream capped and uncapped — across shard counts
   {1, 2, 4}, ten+ seeds, and the randomized solver whose rng state
   must survive eviction — and requires bit-identical replies and final
   session states. Plus: the restore-vs-evict race regression,
   snapshot/recover with parked sessions, forget across both tiers, and
   cap removal rehydrating everyone. *)

open Cdw_core
module Engine = Cdw_engine.Engine
module Gen_params = Cdw_workload.Gen_params
module Generator = Cdw_workload.Generator
module Serving = Cdw_shard.Serving
module Shard_bench = Cdw_shard.Shard_bench
module Splitmix = Cdw_util.Splitmix
module Store = Cdw_store.Store
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

(* Everything observable, with the wall-clock [time_ms] excluded. *)
let reply_key (r : Engine.reply) =
  (r.Engine.user, r.Engine.request, r.Engine.result)

let spec_for seed =
  {
    Traffic.default with
    Traffic.users = 60;
    requests = 600;
    churn = 0.1;
    arrival = Traffic.Poisson 2_000.0;
    seed;
  }

(* 8 resident sessions against ~60 active users: the cap forces the
   overwhelming majority of touches through the evict/hydrate path. *)
let session_bytes = 1024
let tight_cap = 8 * session_bytes

(* Pump a whole traffic stream through a serving value with the same
   synthetic-time drain windows serve-bench uses, collecting every
   reply key in drain order plus the final recoverable states, the
   tier counters and the ["sessions"] block of the metrics. *)
let run ?mem_cap ~shards ~algorithm ~seed spec wf pairs =
  let serving = Serving.create ~algorithm ~seed ~shards wf in
  Option.iter
    (fun cap -> Serving.set_mem_cap ~session_bytes serving (Some cap))
    mem_cap;
  let gen = Traffic.create spec ~pairs in
  let replies = ref [] in
  let drain () =
    replies :=
      List.rev_append
        (List.map reply_key (Serving.drain serving))
        !replies
  in
  let window = 50.0 in
  let rec pump window_end =
    match Traffic.next gen with
    | None -> drain ()
    | Some e ->
        let window_end =
          if e.Traffic.at_ms >= window_end then begin
            drain ();
            let skipped =
              int_of_float ((e.Traffic.at_ms -. window_end) /. window)
            in
            window_end +. (float_of_int (skipped + 1) *. window)
          end
          else window_end
        in
        Serving.submit serving ~user:e.Traffic.user
          (Shard_bench.request_of_op e.Traffic.op);
        pump window_end
  in
  pump window;
  let states = Serving.session_states serving in
  let stats = Serving.tier_stats serving in
  let sessions =
    Option.get (Cdw_util.Json.member "sessions" (Serving.metrics_json serving))
  in
  Serving.close serving;
  (List.rev !replies, states, stats, sessions)

let differential ~algorithm ~seeds () =
  List.iter
    (fun seed ->
      let wf = workflow (1000 + seed) in
      let pairs = Workbench.connected_pairs wf in
      let spec = spec_for seed in
      List.iter
        (fun shards ->
          let free, free_states, _, _ =
            run ~shards ~algorithm ~seed spec wf pairs
          in
          let capped, capped_states, stats, _ =
            run ~mem_cap:tight_cap ~shards ~algorithm ~seed spec wf pairs
          in
          let tag what =
            Printf.sprintf "%s (algorithm %s, seed %d, %d shard%s)" what
              (Algorithms.to_string algorithm)
              seed shards
              (if shards = 1 then "" else "s")
          in
          (* The gate must actually exercise tiering, not vacuously
             pass with everything resident. *)
          (match stats with
          | None -> Alcotest.failf "%s: no tier stats" (tag "capped run")
          | Some s ->
              if s.Cdw_engine.Tier.evictions = 0 then
                Alcotest.failf "%s: cap never evicted" (tag "capped run");
              if s.Cdw_engine.Tier.hydrations = 0 then
                Alcotest.failf "%s: cap never hydrated" (tag "capped run"));
          if free <> capped then
            Alcotest.failf "%s" (tag "replies diverge under the cap");
          if free_states <> capped_states then
            Alcotest.failf "%s" (tag "final states diverge under the cap"))
        [ 1; 2; 4 ])
    seeds

(* The deterministic solver across ten seeds... *)
let test_differential_deterministic =
  differential ~algorithm:Algorithms.Remove_first_edge
    ~seeds:[ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]

(* ...and the randomized one, whose per-session rng state must be
   captured at eviction and restored at hydration for the streams to
   stay aligned. *)
let test_differential_randomized =
  differential ~algorithm:Algorithms.Remove_random_edge ~seeds:[ 0; 1; 2 ]

(* The metrics' ["sessions"] block counts lifetime totals over both
   tiers, so a cap does not change it: a parked session keeps its
   count and its solves, and a hydrated one does not start over. *)
let test_sessions_block_ignores_cap () =
  let seed = 4 in
  let wf = workflow (1000 + seed) in
  let pairs = Workbench.connected_pairs wf in
  let spec = spec_for seed in
  List.iter
    (fun shards ->
      let serve mem_cap =
        let _, _, _, sessions =
          run ?mem_cap ~shards ~algorithm:Algorithms.Remove_min_mc ~seed spec
            wf pairs
        in
        sessions
      in
      let free = serve None and capped = serve (Some tight_cap) in
      let field name =
        Option.bind (Cdw_util.Json.member name free) Cdw_util.Json.to_float
      in
      Alcotest.(check bool)
        (Printf.sprintf "%d shard(s): sessions were served and solved" shards)
        true
        (field "count" > Some 0.0 && field "solver_runs" > Some 0.0);
      Alcotest.(check string)
        (Printf.sprintf "%d shard(s): capped sessions block = uncapped" shards)
        (Cdw_util.Json.to_string free)
        (Cdw_util.Json.to_string capped))
    [ 1; 2 ]

(* ---------------------------------------------------------------- *)
(* The restore-vs-evict race (regression)                             *)

(* Engine.restore_session must be atomic against racing submits and
   drain-boundary evictions: restore domains hammer their own users
   while submitter domains keep the queue hot and the main thread
   drains under a 4-session cap. Every reply must be Ok, nothing may
   be lost, and the restored users must end with exactly their
   restored state. *)
let test_restore_race () =
  let wf = workflow 77 in
  let pairs = Workbench.connected_pairs wf in
  let engine =
    Engine.create ~algorithm:Algorithms.Remove_first_edge ~seed:7 wf
  in
  Engine.set_mem_cap ~session_bytes engine (Some (4 * session_bytes));
  let submitters = 2 and per_domain_users = 15 and rounds = 40 in
  let running = Atomic.make (submitters + 1) in
  let submit_domain d =
    Domain.spawn (fun () ->
        for round = 1 to rounds do
          for u = 0 to per_domain_users - 1 do
            let pair = pairs.((((d * per_domain_users) + u) * 7 + round)
                              mod Array.length pairs) in
            Engine.submit engine
              ~user:(Printf.sprintf "s%d-%02d" d u)
              (Engine.Add [ pair ])
          done
        done;
        Atomic.decr running)
  in
  let restored_pair = pairs.(0) in
  let restore_users = List.init 5 (Printf.sprintf "r-%d") in
  let restore_domain =
    Domain.spawn (fun () ->
        let failures = ref 0 in
        for _ = 1 to 50 do
          List.iter
            (fun u ->
              match
                Engine.restore_session engine u
                  ~constraints:[ restored_pair ] ~removed_ids:[]
              with
              | Ok () -> ()
              | Error _ -> incr failures)
            restore_users
        done;
        Atomic.decr running;
        !failures)
  in
  let doms = List.init submitters submit_domain in
  let replies = ref 0 and errors = ref 0 in
  let count rs =
    List.iter
      (fun (r : Engine.reply) ->
        incr replies;
        if Result.is_error r.Engine.result then incr errors)
      rs
  in
  while Atomic.get running > 0 do
    count (Engine.drain engine)
  done;
  List.iter Domain.join doms;
  let restore_failures = Domain.join restore_domain in
  count (Engine.drain engine);
  Alcotest.(check int) "every submit answered"
    (submitters * per_domain_users * rounds)
    !replies;
  Alcotest.(check int) "no error replies" 0 !errors;
  Alcotest.(check int) "no restore failures" 0 restore_failures;
  (* Deterministic epilogue: the queue is empty, so the last sweep
     parked all but the cap's worth of sessions — touching every user
     again must go through the hydration path. *)
  for d = 0 to submitters - 1 do
    for u = 0 to per_domain_users - 1 do
      Engine.submit engine
        ~user:(Printf.sprintf "s%d-%02d" d u)
        (Engine.Add [])
    done
  done;
  count (Engine.drain engine);
  Alcotest.(check int) "epilogue replies are clean" 0 !errors;
  (match Engine.tier_stats engine with
  | None -> Alcotest.fail "tiering off?"
  | Some s ->
      Alcotest.(check bool) "evictions happened" true
        (s.Cdw_engine.Tier.evictions > 0);
      Alcotest.(check bool) "hydrations happened" true
        (s.Cdw_engine.Tier.hydrations > 0));
  let states = Engine.session_states engine in
  Alcotest.(check int) "every user has recoverable state"
    ((submitters * per_domain_users) + List.length restore_users)
    (List.length states);
  List.iter
    (fun u ->
      match List.find_opt (fun (user, _, _) -> user = u) states with
      | None -> Alcotest.failf "restored user %s lost" u
      | Some (_, cs, ids) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s holds exactly its restored state" u)
            true
            (cs = [ restored_pair ] && ids = []))
    restore_users

(* ---------------------------------------------------------------- *)
(* Tiering and the ledger                                             *)

let temp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "cdw_tier_%d_%d" (Unix.getpid ()) !counter)
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

(* A snapshot taken while most sessions are parked must persist both
   tiers; the recovered engine (untiered) holds every user. *)
let test_snapshot_covers_parked () =
  with_dir (fun dir ->
      let wf = workflow 31 in
      let pairs = Workbench.connected_pairs wf in
      let engine =
        Engine.create ~algorithm:Algorithms.Remove_first_edge ~seed:5 wf
      in
      let store = Store.create_for ~dir engine in
      for u = 0 to 29 do
        Engine.submit engine
          ~user:(Printf.sprintf "u-%02d" u)
          (Engine.Add [ pairs.(u mod Array.length pairs) ])
      done;
      ignore (Engine.drain engine);
      Engine.set_mem_cap ~session_bytes engine (Some (4 * session_bytes));
      (match Engine.tier_stats engine with
      | Some s ->
          Alcotest.(check bool) "most sessions parked" true
            (s.Cdw_engine.Tier.parked >= 20)
      | None -> Alcotest.fail "tiering off?");
      Store.write_snapshot store engine;
      Store.close store;
      match Store.recover dir with
      | Error e -> Alcotest.failf "recover: %s" e
      | Ok r ->
          Alcotest.(check int) "snapshot persisted both tiers" 30
            r.Store.snapshot_users;
          Alcotest.(check bool) "recovered state = both-tier state" true
            (Engine.session_states r.Store.engine
            = Engine.session_states engine))

(* Forget is erasure across both tiers: a parked user's record
   disappears and the closure is journaled. *)
let test_forget_erases_parked () =
  let wf = workflow 31 in
  let pairs = Workbench.connected_pairs wf in
  let engine =
    Engine.create ~algorithm:Algorithms.Remove_first_edge ~seed:5 wf
  in
  let closed = ref [] in
  Engine.set_journal engine
    (Some
       (function
       | Engine.Session_closed { user } -> closed := user :: !closed
       | _ -> ()));
  for u = 0 to 9 do
    Engine.submit engine
      ~user:(Printf.sprintf "u-%02d" u)
      (Engine.Add [ pairs.(u mod Array.length pairs) ])
  done;
  ignore (Engine.drain engine);
  Engine.set_mem_cap ~session_bytes engine (Some (2 * session_bytes));
  (* u-00 is among the coldest, hence parked, not resident. *)
  Alcotest.(check bool) "u-00 is not resident" true
    (not (List.mem_assoc "u-00" (Engine.sessions engine)));
  Alcotest.(check bool) "u-00 still has recoverable state" true
    (List.exists (fun (u, _, _) -> u = "u-00") (Engine.session_states engine));
  Engine.forget engine "u-00";
  Alcotest.(check bool) "u-00 erased from both tiers" false
    (List.exists (fun (u, _, _) -> u = "u-00") (Engine.session_states engine));
  Alcotest.(check bool) "erasure journaled" true (List.mem "u-00" !closed);
  Alcotest.(check int) "nobody else was closed" 1 (List.length !closed)

(* Removing the cap rehydrates everything: the parked table drains
   back into live sessions and tiering reports off. *)
let test_uncap_rehydrates () =
  let wf = workflow 31 in
  let pairs = Workbench.connected_pairs wf in
  let engine =
    Engine.create ~algorithm:Algorithms.Remove_first_edge ~seed:5 wf
  in
  for u = 0 to 19 do
    Engine.submit engine
      ~user:(Printf.sprintf "u-%02d" u)
      (Engine.Add [ pairs.(u mod Array.length pairs) ])
  done;
  ignore (Engine.drain engine);
  let before = Engine.session_states engine in
  Engine.set_mem_cap ~session_bytes engine (Some (3 * session_bytes));
  Alcotest.(check int) "capped residency" 3
    (List.length (Engine.sessions engine));
  Engine.set_mem_cap engine None;
  Alcotest.(check bool) "tiering off" true (Engine.tier_stats engine = None);
  Alcotest.(check int) "everyone resident again" 20
    (List.length (Engine.sessions engine));
  Alcotest.(check bool) "states survived the round trip" true
    (Engine.session_states engine = before)

let suite =
  [
    ( "differential: cap is invisible (deterministic solver, 10 seeds)",
      `Slow,
      test_differential_deterministic );
    ( "differential: cap is invisible (randomized solver rng capture)",
      `Slow,
      test_differential_randomized );
    ("restore vs evict race (regression)", `Slow, test_restore_race);
    ("metrics: the sessions block is the same capped and uncapped", `Quick, test_sessions_block_ignores_cap);
    ("snapshot persists parked sessions", `Quick, test_snapshot_covers_parked);
    ("forget erases across both tiers", `Quick, test_forget_erases_parked);
    ("removing the cap rehydrates", `Quick, test_uncap_rehydrates);
  ]
