(* Base-graph epochs: the migration correctness obligation. The
   acceptance differential — post-migration state must be bit-identical
   to solving every constraint set fresh on the new base — across shard
   counts {1,2,4}, seeds, warm/cold tiers, the randomized solver and
   wire-served sessions; plus the Evolution diff semantics, queued-
   submit remapping, vanished-endpoint drops, migration telemetry, and
   snapshot-format compatibility (1.x/2.0 recover as implicit epoch 0,
   3.0 round-trips a non-zero epoch). *)

open Cdw_core
module Client = Cdw_net.Client
module Engine = Cdw_engine.Engine
module Evolve = Cdw_workload.Evolve
module Gen_params = Cdw_workload.Gen_params
module Generator = Cdw_workload.Generator
module Json = Cdw_util.Json
module Metrics = Cdw_engine.Metrics
module Prom = Cdw_obs.Prom
module Reach = Cdw_graph.Reach
module Server = Cdw_net.Server
module Session = Cdw_engine.Session
module Serving = Cdw_shard.Serving
module Splitmix = Cdw_util.Splitmix
module Store = Cdw_store.Store
module Wire = Cdw_net.Wire

let shard_counts = [ 1; 2; 4 ]

(* ---------------------------------------------------------------- *)
(* Workload: one coalesced batch per user                            *)

let connected_pairs wf =
  let snapshot = Reach.Snapshot.create (Workflow.graph wf) in
  let purposes = Workflow.purposes wf in
  Array.of_list
    (List.concat_map
       (fun u ->
         List.filter_map
           (fun p ->
             if Reach.Snapshot.reaches snapshot u p then Some (u, p) else None)
           purposes)
       (Workflow.users wf))

let user_name u = Printf.sprintf "u-%03d" u

(* Every user submits all their pairs before the single drain — the
   engine coalesces a user's requests within a drain into one solver
   batch, which is the granularity migration recomputes at. *)
let one_round_script ~seed ~users pairs =
  let rng = Splitmix.create (seed lxor 0xE90C4) in
  List.init users (fun u ->
      let batch =
        List.init (1 + Splitmix.int rng 3) (fun _ -> Splitmix.pick rng pairs)
      in
      (user_name u, batch))

let submit_script serving script =
  List.iter
    (fun (user, batch) -> Serving.submit serving ~user (Engine.Add batch))
    script;
  ignore (Serving.drain serving)

let normalize wf =
  match Serialize.parse (Serialize.to_string wf) with
  | Ok (n, _) -> n
  | Error e -> Alcotest.failf "mutant does not round-trip: %s" e

(* The reference: a fresh single-engine serving on the (normalized) new
   base, fed each user's post-migration constraint set as one coalesced
   batch — "solving every constraint set fresh on the new base". *)
let fresh_reference ~algorithm ~seed new_base states =
  let serving = Serving.create ~algorithm ~seed new_base in
  List.iter
    (fun (user, pairs, _) -> Serving.submit serving ~user (Engine.Add pairs))
    states;
  ignore (Serving.drain serving);
  let reference = Serving.session_states serving in
  Serving.close serving;
  reference

let evolve_step seed =
  {
    Evolve.default_step with
    Evolve.seed;
    add_edges = 2;
    drop_edges = 1;
    reprice_edges = 2;
    add_purposes = 1;
  }

(* ---------------------------------------------------------------- *)
(* The acceptance differential                                       *)

let differential_case ~algorithm ~seed ~shards ~cold params =
  let instance = Generator.generate ~seed params in
  let wf = instance.Generator.workflow in
  let pairs = connected_pairs wf in
  pairs = [||]
  ||
  let script = one_round_script ~seed ~users:12 pairs in
  let serving =
    Serving.create ~algorithm ~seed:(seed lxor 0xBEEF) ~shards wf
  in
  (* A tiny cap parks almost every session before the migration, so the
     cold-tier repark path is what gets exercised. *)
  if cold then Serving.set_mem_cap ~session_bytes:1024 serving (Some 2048);
  submit_script serving script;
  (if cold then
     match Serving.tier_stats serving with
     | Some ts when ts.Cdw_engine.Tier.parked > 0 -> ()
     | _ -> Alcotest.fail "cold case parked nothing — cap too generous");
  let mutant = normalize (Evolve.mutate (evolve_step seed) wf) in
  let m = Serving.migrate serving mutant in
  let migrated = Serving.session_states serving in
  let epoch = Serving.epoch serving in
  Serving.close serving;
  Alcotest.(check int) "epoch advanced" 1 epoch;
  Alcotest.(check int) "migration reports the epoch" 1 m.Engine.m_epoch;
  Alcotest.(check int) "every session accounted for" (List.length script)
    m.Engine.m_recomputed;
  let reference =
    fresh_reference ~algorithm ~seed:(seed lxor 0xBEEF) mutant migrated
  in
  migrated = reference

let test_differential_sweep () =
  let params =
    {
      Gen_params.default with
      Gen_params.n_vertices = 40;
      n_constraints = 0;
      stages = 4;
      density = 0.12;
    }
  in
  let seeds = List.init 10 (fun i -> 700 + (31 * i)) in
  List.iter
    (fun shards ->
      List.iter
        (fun cold ->
          List.iter
            (fun seed ->
              if
                not
                  (differential_case ~algorithm:Algorithms.Remove_first_edge
                     ~seed ~shards ~cold params)
              then
                Alcotest.failf
                  "seed %d, %d shard(s), %s: migrated state diverges from a \
                   fresh solve on the new base"
                  seed shards
                  (if cold then "cold" else "warm"))
            seeds)
        [ false; true ])
    shard_counts

(* Same gate under the seeded-randomized solver: equality certifies the
   recompute path reseeds each session from (engine seed, user) alone,
   so no pre-migration rng state leaks into the comparison. *)
let test_differential_randomized_solver () =
  let params =
    {
      Gen_params.default with
      Gen_params.n_vertices = 36;
      n_constraints = 0;
      stages = 4;
    }
  in
  List.iter
    (fun seed ->
      List.iter
        (fun shards ->
          if
            not
              (differential_case ~algorithm:Algorithms.Remove_random_edge ~seed
                 ~shards ~cold:false params)
          then
            Alcotest.failf
              "seed %d, %d shard(s): randomized solver diverges under \
               migration"
              seed shards)
        shard_counts)
    [ 901; 932; 963; 994; 1025 ]

(* Pinned: two structurally disjoint branches, an epoch that only grows
   one of them. Both users are re-solved — the one on the untouched
   branch too — and the result equals a fresh serve on the new base. *)
let test_branch_isolation_recomputes () =
  let build extra =
    let wf = Workflow.create () in
    let ua = Workflow.add_user ~name:"ua" wf in
    let ub = Workflow.add_user ~name:"ub" wf in
    let f = Workflow.add_algorithm ~name:"f" wf in
    let g = Workflow.add_algorithm ~name:"g" wf in
    let p = Workflow.add_purpose ~name:"p" ~weight:2.0 wf in
    let q = Workflow.add_purpose ~name:"q" ~weight:3.0 wf in
    ignore (Workflow.connect ~value:1.0 wf ua f);
    ignore (Workflow.connect ~value:1.0 wf ub g);
    ignore (Workflow.connect wf f p);
    ignore (Workflow.connect wf g q);
    if extra then begin
      let r = Workflow.add_purpose ~name:"r" ~weight:1.0 wf in
      ignore (Workflow.connect wf g r)
    end;
    (wf, ua, ub, p, q)
  in
  let wf, ua, ub, p, q = build false in
  let next, _, _, _, _ = build true in
  let serving =
    Serving.create ~algorithm:Algorithms.Remove_first_edge ~seed:9 wf
  in
  Serving.submit serving ~user:"alice" (Engine.Add [ (ua, p) ]);
  Serving.submit serving ~user:"bob" (Engine.Add [ (ub, q) ]);
  ignore (Serving.drain serving);
  let mutant = normalize next in
  let m = Serving.migrate serving mutant in
  Alcotest.(check int) "alice and bob are both re-solved" 2
    m.Engine.m_recomputed;
  let migrated = Serving.session_states serving in
  Serving.close serving;
  let reference =
    fresh_reference ~algorithm:Algorithms.Remove_first_edge ~seed:9 mutant
      migrated
  in
  if migrated <> reference then
    Alcotest.fail "branch-isolated migration diverges from a fresh solve"

(* Chained evolution: each epoch migrates the previous epoch's state,
   and the end state still equals a fresh solve on the final base. *)
let test_chained_migrations () =
  let seed = 1300 in
  let params =
    { Gen_params.default with Gen_params.n_vertices = 40; n_constraints = 0 }
  in
  let instance = Generator.generate ~seed params in
  let wf = instance.Generator.workflow in
  let pairs = connected_pairs wf in
  Alcotest.(check bool) "instance has connected pairs" true (pairs <> [||]);
  let script = one_round_script ~seed ~users:10 pairs in
  let serving =
    Serving.create ~algorithm:Algorithms.Remove_first_edge ~seed ~shards:2 wf
  in
  submit_script serving script;
  let base = ref wf in
  List.iteri
    (fun i step_seed ->
      let next = normalize (Evolve.mutate (evolve_step step_seed) !base) in
      let m = Serving.migrate serving next in
      Alcotest.(check int) "epochs are sequential" (i + 1) m.Engine.m_epoch;
      base := next)
    [ 7; 8; 9 ];
  Alcotest.(check int) "serving sits on the last epoch" 3
    (Serving.epoch serving);
  let migrated = Serving.session_states serving in
  Serving.close serving;
  let reference =
    fresh_reference ~algorithm:Algorithms.Remove_first_edge ~seed !base
      migrated
  in
  if migrated <> reference then
    Alcotest.fail "chained migrations diverge from a fresh solve on the \
                   final base"

(* ---------------------------------------------------------------- *)
(* Wire-served sessions                                              *)

let with_wire_server ~shards wf f =
  let serving =
    Serving.create ~algorithm:Algorithms.Remove_first_edge ~seed:5 ~shards wf
  in
  let path = Filename.temp_file "cdw_epoch" ".sock" in
  Sys.remove path;
  let server = Server.start serving (Unix.ADDR_UNIX path) in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      Serving.close serving;
      if Sys.file_exists path then Sys.remove path)
    (fun () -> f serving server)

let test_differential_wire () =
  let seed = 1400 in
  let params =
    { Gen_params.default with Gen_params.n_vertices = 40; n_constraints = 0 }
  in
  let instance = Generator.generate ~seed params in
  let wf = instance.Generator.workflow in
  let pairs = connected_pairs wf in
  Alcotest.(check bool) "instance has connected pairs" true (pairs <> [||]);
  let script = one_round_script ~seed ~users:12 pairs in
  with_wire_server ~shards:2 wf (fun serving server ->
      let client = Client.connect (Server.sockaddr server) in
      List.iter
        (fun (user, batch) -> Client.submit client ~user (Engine.Add batch))
        script;
      ignore (Client.drain client);
      Alcotest.(check int) "epoch 0 before the install" 0 (Client.epoch client);
      let mutant = normalize (Evolve.mutate (evolve_step seed) wf) in
      let e = Client.install_epoch client (Serialize.to_string mutant) in
      Alcotest.(check int) "install reports epoch 1" 1 e.Wire.e_epoch;
      Alcotest.(check int) "every wire session re-solved"
        (List.length script) e.Wire.e_recomputed;
      Alcotest.(check int) "the server reports no remapped sessions" 0
        e.Wire.e_remapped;
      Alcotest.(check int) "epoch 1 after the install" 1 (Client.epoch client);
      Client.close client;
      let migrated = Serving.session_states serving in
      let reference =
        fresh_reference ~algorithm:Algorithms.Remove_first_edge ~seed:5 mutant
          migrated
      in
      if migrated <> reference then
        Alcotest.fail
          "wire-served sessions diverge from a fresh solve on the new base")

(* A legacy (0x01) client can install and query epochs too: the opcode
   set is version-independent — version bytes gate the layout only. *)
let test_wire_v1_interop () =
  let wf = Workflow.create () in
  let u = Workflow.add_user ~name:"u" wf in
  let a = Workflow.add_algorithm ~name:"a" wf in
  let p = Workflow.add_purpose ~name:"p" ~weight:2.0 wf in
  ignore (Workflow.connect ~value:1.0 wf u a);
  ignore (Workflow.connect wf a p);
  with_wire_server ~shards:1 wf (fun _serving server ->
      let client = Client.connect ~version:0x01 (Server.sockaddr server) in
      Client.submit client ~user:"alice" (Engine.Add [ (u, p) ]);
      ignore (Client.drain client);
      let e = Client.install_epoch client (Serialize.to_string wf) in
      Alcotest.(check int) "v1 install lands epoch 1" 1 e.Wire.e_epoch;
      Alcotest.(check int) "v1 epoch query" 1 (Client.epoch client);
      (* Garbage text is a clean rejection, not a desync. *)
      (match Client.install_epoch client "not a workflow" with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "garbage workflow text accepted");
      Client.ping client;
      Client.close client)

(* ---------------------------------------------------------------- *)
(* Queued submits across the boundary                                *)

let two_epoch_bases () =
  (* Old base: u1,u2 -> a -> p1,p2. New base: p2 vanishes, p3 appears
     (u2's p2 consents can no longer mean anything). *)
  let old_wf = Workflow.create () in
  let u1 = Workflow.add_user ~name:"u1" old_wf in
  let u2 = Workflow.add_user ~name:"u2" old_wf in
  let a = Workflow.add_algorithm ~name:"a" old_wf in
  let p1 = Workflow.add_purpose ~name:"p1" ~weight:2.0 old_wf in
  let p2 = Workflow.add_purpose ~name:"p2" ~weight:3.0 old_wf in
  ignore (Workflow.connect ~value:1.0 old_wf u1 a);
  ignore (Workflow.connect ~value:1.0 old_wf u2 a);
  ignore (Workflow.connect old_wf a p1);
  ignore (Workflow.connect old_wf a p2);
  let new_wf = Workflow.create () in
  let u1' = Workflow.add_user ~name:"u1" new_wf in
  let u2' = Workflow.add_user ~name:"u2" new_wf in
  let a' = Workflow.add_algorithm ~name:"a" new_wf in
  let p1' = Workflow.add_purpose ~name:"p1" ~weight:2.0 new_wf in
  let p3' = Workflow.add_purpose ~name:"p3" ~weight:1.0 new_wf in
  ignore (Workflow.connect ~value:1.0 new_wf u1' a');
  ignore (Workflow.connect ~value:1.0 new_wf u2' a');
  ignore (Workflow.connect new_wf a' p1');
  ignore (Workflow.connect new_wf a' p3');
  ((old_wf, u1, u2, p1, p2), (new_wf, p1'))

let test_queued_submits_remap () =
  let (old_wf, u1, _u2, p1, _p2), (new_wf, p1') = two_epoch_bases () in
  let serving =
    Serving.create ~algorithm:Algorithms.Remove_first_edge ~seed:3 old_wf
  in
  (* Queued before the epoch lands, served after: the pair's ids must
     be remapped to the new base, not applied verbatim. *)
  Serving.submit serving ~user:"alice" (Engine.Add [ (u1, p1) ]);
  ignore (Serving.migrate serving new_wf);
  let replies = Serving.drain serving in
  List.iter
    (fun (r : Engine.reply) ->
      match r.Engine.result with
      | Ok () -> ()
      | Error e -> Alcotest.failf "remapped submit rejected: %s" e)
    replies;
  (match Serving.session_states serving with
  | [ ("alice", pairs, _) ] ->
      let base = Serving.base serving in
      Alcotest.(check (list (pair string string)))
        "queued pair lands under new-base ids"
        [ ("u1", "p1") ]
        (List.map
           (fun (s, t) -> (Workflow.name base s, Workflow.name base t))
           pairs);
      Alcotest.(check bool) "and those are the new ids" true
        (pairs = [ (Workflow.vertex_of_name base "u1" |> Option.get, p1') ])
  | states -> Alcotest.failf "unexpected state shape (%d users)"
                (List.length states));
  Serving.close serving

let test_queued_submit_vanished_endpoint () =
  let (old_wf, _u1, u2, _p1, p2), (new_wf, _) = two_epoch_bases () in
  let serving =
    Serving.create ~algorithm:Algorithms.Remove_first_edge ~seed:3 old_wf
  in
  Serving.submit serving ~user:"bob" (Engine.Add [ (u2, p2) ]);
  ignore (Serving.migrate serving new_wf);
  (match Serving.drain serving with
  | [ { Engine.result = Error _; _ } ] -> ()
  | [ { Engine.result = Ok (); _ } ] ->
      Alcotest.fail "submit naming a vanished purpose was accepted"
  | replies -> Alcotest.failf "expected one reply, got %d"
                 (List.length replies));
  Serving.close serving

let test_accepted_pairs_drop_on_vanish () =
  let (old_wf, u1, u2, p1, p2), (new_wf, _) = two_epoch_bases () in
  let serving =
    Serving.create ~algorithm:Algorithms.Remove_first_edge ~seed:3 old_wf
  in
  Serving.submit serving ~user:"alice" (Engine.Add [ (u1, p1) ]);
  Serving.submit serving ~user:"bob" (Engine.Add [ (u2, p2); (u2, p1) ]);
  ignore (Serving.drain serving);
  let m = Serving.migrate serving new_wf in
  Alcotest.(check int) "one pair dropped (bob's p2)" 1
    m.Engine.m_dropped_pairs;
  let base = Serving.base serving in
  let by_name pairs =
    List.sort compare
      (List.map
         (fun (s, t) -> (Workflow.name base s, Workflow.name base t))
         pairs)
  in
  (match Serving.session_states serving with
  | [ ("alice", a_pairs, _); ("bob", b_pairs, _) ] ->
      Alcotest.(check (list (pair string string)))
        "alice keeps her pair"
        [ ("u1", "p1") ]
        (by_name a_pairs);
      Alcotest.(check (list (pair string string)))
        "bob keeps only the surviving pair"
        [ ("u2", "p1") ]
        (by_name b_pairs)
  | _ -> Alcotest.fail "unexpected session set");
  Serving.close serving

(* ---------------------------------------------------------------- *)
(* Evolution diff semantics                                          *)

let test_evolution_diff () =
  let (old_wf, _, _, _, _), (new_wf, _) = two_epoch_bases () in
  let d = Evolution.compute ~old_base:old_wf ~new_base:new_wf in
  Alcotest.(check (list string)) "added vertex" [ "p3" ]
    d.Evolution.added_vertices;
  Alcotest.(check (list string)) "removed vertex" [ "p2" ]
    d.Evolution.removed_vertices;
  Alcotest.(check (list (pair string string))) "added edge"
    [ ("a", "p3") ]
    d.Evolution.added_edges;
  Alcotest.(check (list (pair string string))) "removed edge"
    [ ("a", "p2") ]
    d.Evolution.removed_edges;
  Alcotest.(check bool) "no reprice, no reweight" true
    (d.Evolution.repriced_edges = [] && d.Evolution.reweighted_purposes = []);
  Alcotest.(check bool) "diff is not empty" false (Evolution.is_empty d);
  let self = Evolution.compute ~old_base:old_wf ~new_base:old_wf in
  Alcotest.(check bool) "self-diff is empty" true (Evolution.is_empty self)

(* ---------------------------------------------------------------- *)
(* The Evolve mutation source                                        *)

let test_evolve_spec_parsing () =
  (match Evolve.spec_of_string "at:100,drop:1,add:2,reprice:2,seed:7" with
  | Ok [ s ] ->
      Alcotest.(check int) "drop" 1 s.Evolve.drop_edges;
      Alcotest.(check int) "add" 2 s.Evolve.add_edges;
      Alcotest.(check int) "seed" 7 s.Evolve.seed;
      Alcotest.(check (float 0.0)) "at" 100.0 s.Evolve.at_ms
  | Ok steps -> Alcotest.failf "expected one step, got %d" (List.length steps)
  | Error e -> Alcotest.fail e);
  (match Evolve.spec_of_string "at:100,seed:1;at:250,purposes:1,seed:2" with
  | Ok [ _; s2 ] -> Alcotest.(check int) "purposes" 1 s2.Evolve.add_purposes
  | Ok _ | Error _ -> Alcotest.fail "two-step schedule should parse");
  (* Round-trip through the printer. *)
  (match Evolve.spec_of_string "at:100,add:3,seed:9" with
  | Ok steps -> (
      match Evolve.spec_of_string (Evolve.spec_to_string steps) with
      | Ok steps' ->
          Alcotest.(check bool) "spec round-trips" true (steps = steps')
      | Error e -> Alcotest.failf "printed spec does not parse: %s" e)
  | Error e -> Alcotest.fail e);
  List.iter
    (fun bad ->
      match Evolve.spec_of_string bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "malformed spec %S accepted" bad)
    [
      "at:-5";
      "at:100,add:-1";
      "at:200,seed:1;at:100,seed:2" (* decreasing at *);
      "at:100,frobnicate:3";
      "at:nope";
      "";
    ]

let test_evolve_mutation_wellformed () =
  let params =
    { Gen_params.default with Gen_params.n_vertices = 40; n_constraints = 0 }
  in
  List.iter
    (fun seed ->
      let wf = (Generator.generate ~seed params).Generator.workflow in
      let step =
        {
          Evolve.default_step with
          Evolve.seed;
          add_edges = 3;
          drop_edges = 2;
          reprice_edges = 3;
          add_purposes = 2;
        }
      in
      let next = Evolve.mutate step wf in
      (* Same step, same base: the mutation is a pure function. *)
      Alcotest.(check string)
        (Printf.sprintf "seed %d: mutation is deterministic" seed)
        (Serialize.to_string next)
        (Serialize.to_string (Evolve.mutate step wf));
      (* Every old vertex survives by name (Evolve never removes
         vertices — only epochs authored by hand do that). *)
      List.iter
        (fun v ->
          let name = Workflow.name wf v in
          if Workflow.vertex_of_name next name = None then
            Alcotest.failf "seed %d: vertex %s vanished" seed name)
        (List.init (Workflow.n_vertices wf) Fun.id);
      Alcotest.(check int) "purposes grew by add_purposes"
        (List.length (Workflow.purposes wf) + 2)
        (List.length (Workflow.purposes next));
      (* The mutant is installable: it round-trips through the text
         format (which rejects non-DAGs and kind-illegal edges) and a
         serving accepts it as an epoch. *)
      let mutant = normalize next in
      let serving =
        Serving.create ~algorithm:Algorithms.Remove_first_edge ~seed wf
      in
      let m = Serving.migrate serving mutant in
      Alcotest.(check int) "installs as epoch 1" 1 m.Engine.m_epoch;
      Serving.close serving)
    [ 21; 22; 23; 24; 25 ]

(* ---------------------------------------------------------------- *)
(* Telemetry: counters, the epoch gauge, exposition lint             *)

let test_migration_telemetry () =
  let seed = 1500 in
  let params =
    { Gen_params.default with Gen_params.n_vertices = 40; n_constraints = 0 }
  in
  let wf = (Generator.generate ~seed params).Generator.workflow in
  let pairs = connected_pairs wf in
  Alcotest.(check bool) "instance has connected pairs" true (pairs <> [||]);
  let serving =
    Serving.create ~algorithm:Algorithms.Remove_first_edge ~seed ~shards:2 wf
  in
  submit_script serving (one_round_script ~seed ~users:10 pairs);
  let mutant = normalize (Evolve.mutate (evolve_step seed) wf) in
  let m = Serving.migrate serving mutant in
  let merged = Serving.metrics serving in
  (* Each shard performs (and counts) its own migration. *)
  Alcotest.(check int) "epoch.migrations = shard count" 2
    (Metrics.counter merged "epoch.migrations");
  Alcotest.(check int) "epoch.users_recomputed matches the report"
    m.Engine.m_recomputed
    (Metrics.counter merged "epoch.users_recomputed");
  (match Metrics.gauge merged "epoch" with
  | Some v -> Alcotest.(check (float 0.0)) "epoch gauge" 1.0 v
  | None -> Alcotest.fail "epoch gauge never set");
  (* The counters ride the stats JSON (what --stats-out serializes). *)
  (match Json.member "counters" (Serving.metrics_json serving) with
  | Some counters ->
      List.iter
        (fun name ->
          match Json.member name counters with
          | Some (Json.Number _) -> ()
          | _ -> Alcotest.failf "stats JSON lacks %s" name)
        [ "epoch.migrations"; "epoch.users_recomputed" ]
  | None -> Alcotest.fail "metrics JSON has no counters object");
  (* And the exposition: cdw_epoch is a linted gauge. *)
  let exposition = Serving.prometheus serving in
  (match Prom.parse exposition with
  | Error e -> Alcotest.failf "exposition does not parse: %s" e
  | Ok samples -> (
      (match Prom.lint samples with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "exposition fails lint: %s" e);
      match
        List.find_opt
          (fun (s : Prom.sample) -> s.Prom.metric = "cdw_epoch")
          samples
      with
      | Some s -> Alcotest.(check (float 0.0)) "cdw_epoch value" 1.0 s.Prom.value
      | None -> Alcotest.fail "exposition has no cdw_epoch sample"));
  Serving.close serving

(* The solve memo belongs to one epoch: after a migration every user
   holds the cuts of a direct solve on the new base, and the new epoch
   runs the solver once per distinct constraint list. *)
let test_memo_across_migration () =
  let seed = 1600 in
  let params =
    { Gen_params.default with Gen_params.n_vertices = 40; n_constraints = 0 }
  in
  let wf = (Generator.generate ~seed params).Generator.workflow in
  let pairs = connected_pairs wf in
  Alcotest.(check bool) "instance has four connected pairs" true
    (Array.length pairs >= 4);
  let types = [| [ pairs.(0); pairs.(1) ]; [ pairs.(2); pairs.(3) ] |] in
  let algorithm = Algorithms.Remove_min_mc in
  let engine = Engine.create ~algorithm ~seed wf in
  for u = 0 to 15 do
    Engine.submit engine ~user:(user_name u) (Engine.Add types.(u mod 2))
  done;
  ignore (Engine.drain engine);
  let solves () =
    match Metrics.summary (Engine.metrics engine) "solve" with
    | Some s -> s.Cdw_util.Stats.n
    | None -> 0
  in
  let before = solves () in
  let mutant = normalize (Evolve.mutate (evolve_step seed) wf) in
  let m = Engine.migrate engine mutant in
  Alcotest.(check int) "every user re-solved" 16 m.Engine.m_recomputed;
  let new_base = Engine.base engine in
  let direct batch =
    let inc =
      Incremental.create
        ~algorithm:(fun wf cs -> Algorithms.cut algorithm wf cs)
        new_base
    in
    (match Incremental.add inc batch with
    | Ok () -> ()
    | Error e -> Alcotest.fail e);
    inc
  in
  let lists =
    List.sort_uniq compare
      (List.map
         (fun (_, s) -> Constraint_set.pairs (Session.constraints s))
         (Engine.sessions engine))
  in
  let distinct =
    List.fold_left
      (fun acc l ->
        acc + (Incremental.stats (direct l)).Incremental.solver_runs)
      0 lists
  in
  Alcotest.(check int) "one solve per distinct list in the new epoch"
    distinct (solves () - before);
  List.iter
    (fun (user, s) ->
      Alcotest.(check (list int))
        (user ^ ": cuts of a direct solve on the new base")
        (Incremental.delta_removed_ids
           (direct (Constraint_set.pairs (Session.constraints s))))
        (Session.cut_ids s))
    (Engine.sessions engine)

(* ---------------------------------------------------------------- *)
(* Snapshot formats: 3.0 round-trip, 1.x/2.0 compatibility           *)

let temp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "cdw_epoch_%d_%d" (Unix.getpid ()) !counter)
    in
    if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
    dir

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_dir f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let state_string engine = Json.to_string (Store.snapshot_state_json engine)

(* A journaled single-engine run: one coalesced batch per user, one
   drain — the shape whose re-solve (1.x recovery) reproduces the
   original cuts exactly. *)
let journaled_run ?migrate dir seed =
  let params =
    { Gen_params.default with Gen_params.n_vertices = 40; n_constraints = 0 }
  in
  let wf = (Generator.generate ~seed params).Generator.workflow in
  let pairs = connected_pairs wf in
  Alcotest.(check bool) "instance has connected pairs" true (pairs <> [||]);
  let engine =
    Engine.create ~algorithm:Algorithms.Remove_first_edge ~seed:123 wf
  in
  let store =
    Store.create ~dir ~algorithm:Algorithms.Remove_first_edge ~seed:123 wf
  in
  Store.attach store engine;
  List.iter
    (fun (user, batch) -> Engine.submit engine ~user (Engine.Add batch))
    (one_round_script ~seed ~users:8 pairs);
  ignore (Engine.drain engine);
  (match migrate with
  | Some step ->
      let mutant = normalize (Evolve.mutate step wf) in
      ignore (Engine.migrate engine mutant)
  | None -> ());
  Store.write_snapshot store engine;
  Store.close store;
  engine

let recover_ok ~what dir =
  match Store.recover dir with
  | Ok r -> r
  | Error e -> Alcotest.failf "%s: recovery failed: %s" what e

let test_snapshot_v3_roundtrip () =
  with_dir (fun dir ->
      let engine =
        journaled_run ~migrate:(evolve_step 77) dir 1600
      in
      Alcotest.(check int) "live engine on epoch 1" 1
        (Workflow.epoch (Engine.base engine));
      let r = recover_ok ~what:"format 3.0" dir in
      Alcotest.(check int) "recovered onto epoch 1" 1
        (Workflow.epoch (Engine.base r.Store.engine));
      Alcotest.(check bool) "snapshot was used" true
        (r.Store.snapshot_users > 0);
      Alcotest.(check string) "state round-trips with its epoch"
        (state_string engine)
        (state_string r.Store.engine))

(* Rewrite the on-disk snapshot down to an older format: drop the 3.0
   fields (and for 1.x the per-user cuts), as a file written by a
   pre-epoch build would be. *)
let downgrade_snapshot ~format dir =
  let path = Store.snapshot_path dir in
  let text = In_channel.with_open_bin path In_channel.input_all in
  let json =
    match Json.parse text with
    | Ok j -> j
    | Error e -> Alcotest.failf "unreadable snapshot: %s" e
  in
  let fields =
    match json with
    | Json.Object fs -> fs
    | _ -> Alcotest.fail "snapshot is not an object"
  in
  let strip_cuts state =
    match state with
    | Json.Object [ ("users", Json.Array users) ] ->
        Json.Object
          [
            ( "users",
              Json.Array
                (List.map
                   (function
                     | Json.Object ufs ->
                         Json.Object
                           (List.filter (fun (k, _) -> k <> "cuts") ufs)
                     | u -> u)
                   users) );
          ]
    | s -> s
  in
  let fields =
    List.filter_map
      (fun (k, v) ->
        match k with
        | "epoch" | "workflow" -> None
        | "version" ->
            Some (k, Json.Number (if format = `V1 then 1.0 else 2.0))
        | "state" when format = `V1 -> Some (k, strip_cuts v)
        | _ -> Some (k, v))
      fields
  in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (Json.to_string (Json.Object fields)))

let test_snapshot_v2_compat () =
  with_dir (fun dir ->
      let engine = journaled_run dir 1700 in
      downgrade_snapshot ~format:`V2 dir;
      let r = recover_ok ~what:"format 2.0" dir in
      Alcotest.(check int) "legacy snapshot is the implicit epoch 0" 0
        (Workflow.epoch (Engine.base r.Store.engine));
      Alcotest.(check bool) "snapshot was used" true
        (r.Store.snapshot_users > 0);
      Alcotest.(check string) "2.0 state recovers bit-identically"
        (state_string engine)
        (state_string r.Store.engine);
      (* And the epoch-aware machinery still works on it: a migration
         on the recovered engine lands epoch 1. *)
      let wf = Engine.base r.Store.engine in
      let mutant = normalize (Evolve.mutate (evolve_step 3) wf) in
      let m = Engine.migrate r.Store.engine mutant in
      Alcotest.(check int) "recovered engine migrates to epoch 1" 1
        m.Engine.m_epoch)

let test_snapshot_v1_compat () =
  with_dir (fun dir ->
      let engine = journaled_run dir 1800 in
      downgrade_snapshot ~format:`V1 dir;
      let r = recover_ok ~what:"format 1.x" dir in
      Alcotest.(check int) "legacy snapshot is the implicit epoch 0" 0
        (Workflow.epoch (Engine.base r.Store.engine));
      (* No cuts field: recovery re-solves each user's set — which, for
         one coalesced batch per user, reproduces the cuts exactly. *)
      Alcotest.(check string) "1.x state recovers via re-solve"
        (state_string engine)
        (state_string r.Store.engine))

let suite =
  [
    ( "differential: fresh-solve x {1,2,4} shards x warm/cold (10 seeds)",
      `Slow, test_differential_sweep );
    ( "differential: randomized solver (5 seeds)",
      `Slow, test_differential_randomized_solver );
    ("differential: two-branch epoch re-solves both users", `Quick, test_branch_isolation_recomputes);
    ("differential: chained epochs", `Quick, test_chained_migrations);
    ("differential: wire-served sessions", `Quick, test_differential_wire);
    ("wire: v1 client interop", `Quick, test_wire_v1_interop);
    ("queued submits: remapped across the boundary", `Quick, test_queued_submits_remap);
    ("queued submits: vanished endpoint is a clean error", `Quick, test_queued_submit_vanished_endpoint);
    ("accepted pairs: dropped when an endpoint vanishes", `Quick, test_accepted_pairs_drop_on_vanish);
    ("evolution: structural diff", `Quick, test_evolution_diff);
    ("evolve: spec parsing", `Quick, test_evolve_spec_parsing);
    ("evolve: mutations stay installable (5 seeds)", `Quick, test_evolve_mutation_wellformed);
    ("telemetry: counters, gauge, exposition lint", `Quick, test_migration_telemetry);
    ("solve memo: migrated users get the new-base answer", `Quick, test_memo_across_migration);
    ("snapshot: 3.0 epoch round-trip", `Quick, test_snapshot_v3_roundtrip);
    ("snapshot: 2.0 recovers as epoch 0", `Quick, test_snapshot_v2_compat);
    ("snapshot: 1.x recovers as epoch 0", `Quick, test_snapshot_v1_compat);
  ]
