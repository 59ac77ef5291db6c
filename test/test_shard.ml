(* The sharded serving layer's correctness obligation: a shard group is
   observably identical to a single engine. Differential property suite
   (dataset presets + seeded random instances, shard counts {1,2,4,7},
   routing stability) plus a crash-recovery sweep — tear one shard's
   WAL tail at a random byte, recover the group, and require the
   damaged shard to rebuild exactly the state of its surviving record
   prefix while the other shards are untouched and verify/compact leave
   the whole group strict-clean. The one-shard shape has its own cases:
   one shared base, no pinned domains, and both ledger layouts. *)

open Cdw_core
module Engine = Cdw_engine.Engine
module Metrics = Cdw_engine.Metrics
module Session = Cdw_engine.Session
module Router = Cdw_shard.Router
module Serving = Cdw_shard.Serving
module Evolve = Cdw_workload.Evolve
module Digraph = Cdw_graph.Digraph
module Store = Cdw_store.Store
module Record = Cdw_store.Record
module Wal = Cdw_store.Wal
module Fault = Cdw_store.Fault
module Gen_params = Cdw_workload.Gen_params
module Generator = Cdw_workload.Generator
module Reach = Cdw_graph.Reach
module Splitmix = Cdw_util.Splitmix
module Json = Cdw_util.Json
module Workbench = Cdw_engine.Workbench
module Trace = Cdw_obs.Trace

let shard_counts = [ 1; 2; 4; 7 ]

(* ---------------------------------------------------------------- *)
(* Workload: a deterministic multi-drain request script               *)

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

let user_name u = Printf.sprintf "u-%02d" u

(* [rounds] lists of (user, request): per round every user adds a small
   batch, sometimes withdraws something accepted earlier, sometimes
   forces a Resolve; round 0 additionally carries a withdrawal of a
   never-accepted garbage pair (ids outside the vertex range) — the
   engine must answer it with a clean [Error], identically sharded and
   unsharded. Deterministic in [seed]. *)
let script ~seed ~users ~rounds ~n_vertices pairs =
  let rng = Splitmix.create (seed lxor 0x5C417) in
  let accepted = Array.make users [] in
  List.init rounds (fun round ->
      let reqs = ref [] in
      if round = 0 then
        reqs :=
          (user_name 0, Engine.Withdraw [ (n_vertices + 17, n_vertices + 23) ])
          :: !reqs;
      for u = 0 to users - 1 do
        let batch =
          List.init (1 + Splitmix.int rng 3) (fun _ -> Splitmix.pick rng pairs)
        in
        accepted.(u) <- accepted.(u) @ batch;
        reqs := (user_name u, Engine.Add batch) :: !reqs;
        if accepted.(u) <> [] && Splitmix.int rng 3 = 0 then begin
          let p = Splitmix.pick_list rng accepted.(u) in
          accepted.(u) <- List.filter (fun q -> q <> p) accepted.(u);
          reqs := (user_name u, Engine.Withdraw [ p ]) :: !reqs
        end;
        if Splitmix.int rng 4 = 0 then
          reqs := (user_name u, Engine.Resolve) :: !reqs
      done;
      List.rev !reqs)

(* Everything observable, with the wall-clock [time_ms] excluded. *)
let reply_key (r : Engine.reply) = (r.Engine.user, r.Engine.request, r.Engine.result)

let session_state sessions =
  List.sort compare
    (List.map
       (fun (user, s) ->
         ( user,
           List.sort compare (Constraint_set.pairs (Session.constraints s)),
           List.sort compare (Session.cut_ids s),
           Session.utility s ))
       sessions)

let run_single ~algorithm ~seed wf rounds =
  let engine = Engine.create ~algorithm ~seed wf in
  let replies =
    List.map
      (fun round ->
        List.iter (fun (user, rq) -> Engine.submit engine ~user rq) round;
        List.map reply_key (Engine.drain engine))
      rounds
  in
  (replies, session_state (Engine.sessions engine))

let run_sharded ?attach ~algorithm ~seed ~shards wf rounds =
  let group = Serving.create ~algorithm ~seed ~shards wf in
  (match attach with Some f -> f group | None -> ());
  let replies =
    List.map
      (fun round ->
        List.iter (fun (user, rq) -> Serving.submit group ~user rq) round;
        List.map reply_key (Serving.drain group))
      rounds
  in
  let state = session_state (Serving.sessions group) in
  (* Join the pinned drain domains — domains are a finite resource, and
     this suite creates dozens of groups. Sessions and metrics stay
     readable on the closed group. *)
  Serving.close group;
  (group, replies, state)

(* ---------------------------------------------------------------- *)
(* Differential: shard counts {1,2,4,7} vs a single engine            *)

let differential_holds ~algorithm ~seed params =
  let instance = Generator.generate ~seed params in
  let wf = instance.Generator.workflow in
  let pairs = connected_pairs wf in
  pairs = [||]
  ||
  let rounds =
    script ~seed ~users:6 ~rounds:3 ~n_vertices:(Workflow.n_vertices wf) pairs
  in
  let single = run_single ~algorithm ~seed wf rounds in
  List.for_all
    (fun shards ->
      let _, replies, state =
        run_sharded ~algorithm ~seed ~shards wf rounds
      in
      (replies, state) = single)
    shard_counts

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
      List.iter
        (fun algorithm ->
          if not (differential_holds ~algorithm ~seed params) then
            Alcotest.failf "%s/%s: sharded group diverges from single engine"
              name
              (Algorithms.to_string algorithm))
        (* One deterministic heuristic and the seeded-randomized one:
           equal outcomes certify the per-session generators derive
           from (engine seed, user) alone, shard placement excluded. *)
        [ Algorithms.Remove_first_edge; Algorithms.Remove_random_edge ])
    presets

let test_differential_random () =
  Test_helpers.check_seeded
    ~params:
      {
        Gen_params.default with
        Gen_params.n_vertices = 48;
        n_constraints = 0;
        stages = 4;
        density = 0.1;
      }
    ~seeds:(List.init 20 (fun i -> 1000 + (37 * i)))
    "sharded differential (random instances)"
    (fun ~seed params ->
      differential_holds ~algorithm:Algorithms.Remove_first_edge ~seed params)

(* A user's shard is a pure function of (id, shard count): stable
   across drains, group instances and processes — and after a run,
   every session sits exactly on its routed shard. *)
let test_routing_stability () =
  let instance = Generator.generate ~seed:29 Gen_params.dataset2_base in
  let wf = instance.Generator.workflow in
  let pairs = connected_pairs wf in
  Alcotest.(check bool) "instance has connected pairs" true (pairs <> [||]);
  let rounds =
    script ~seed:29 ~users:16 ~rounds:3
      ~n_vertices:(Workflow.n_vertices wf)
      pairs
  in
  List.iter
    (fun shards ->
      let group, _, _ =
        run_sharded ~algorithm:Algorithms.Remove_first_edge ~seed:29 ~shards
          wf rounds
      in
      Array.iteri
        (fun i engine ->
          List.iter
            (fun (user, _) ->
              Alcotest.(check int)
                (Printf.sprintf "%d shards: %s lives on its routed shard"
                   shards user)
                (Router.shard_of ~shards user)
                i;
              Alcotest.(check int)
                (Printf.sprintf "%d shards: group route of %s" shards user)
                (Serving.route group user)
                i)
            (Engine.sessions engine))
        (Serving.engines group))
    shard_counts;
  (* The 16 users of this script actually spread: with 4 shards no
     shard is empty and no shard holds everyone (a fixed fact of the
     digest, pinned here so a routing regression cannot silently
     collapse the group to one hot shard). *)
  let group, _, _ =
    run_sharded ~algorithm:Algorithms.Remove_first_edge ~seed:29 ~shards:4
      wf rounds
  in
  let sizes =
    Array.map
      (fun e -> List.length (Engine.sessions e))
      (Serving.engines group)
  in
  Alcotest.(check bool) "4 shards all populated" true
    (Array.for_all (fun n -> n > 0) sizes);
  Alcotest.(check bool) "no shard holds all 16 users" true
    (Array.for_all (fun n -> n < 16) sizes)

(* ---------------------------------------------------------------- *)
(* Crash recovery: tear one shard's WAL tail, recover the group       *)

let temp_root =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "cdw_shard_%d_%d" (Unix.getpid ()) !counter)
    in
    if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
    dir

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_root f =
  let root = temp_root () in
  Fun.protect ~finally:(fun () -> rm_rf root) (fun () -> f root)

(* The reference interpreter (as in test_store): fold the decodable
   record prefix of a WAL into a fresh engine with plain Engine calls,
   independent of [Store.recover]'s replay machinery. *)
let vertex_of wf name =
  match Workflow.vertex_of_name wf name with
  | Some v -> v
  | None -> int_of_string (String.sub name 1 (String.length name - 1))

let apply_records ~algorithm ~seed wf records =
  let engine = Engine.create ~algorithm ~seed wf in
  (* Names resolve against the engine's base *of the moment* — an
     [Epoch_installed] record swaps it mid-stream, like store replay. *)
  let decode pairs =
    let base = Engine.base engine in
    List.map (fun (s, t) -> (vertex_of base s, vertex_of base t)) pairs
  in
  List.iter
    (fun r ->
      match (r : Record.t) with
      | Record.Grant { user; pairs } ->
          Engine.submit engine ~user (Engine.Add (decode pairs))
      | Record.Withdraw { user; pairs } ->
          Engine.submit engine ~user (Engine.Withdraw (decode pairs))
      | Record.Resolve { user } -> Engine.submit engine ~user Engine.Resolve
      | Record.Session_open { user } -> Engine.open_session engine user
      | Record.Session_close { user } -> Engine.forget engine user
      | Record.Drain _ -> ignore (Engine.drain engine)
      | Record.Cut_refined _ ->
          (* Only ledgers of older builds hold these. *)
          Alcotest.fail "hand replay: unexpected Cut_refined record"
      | Record.Epoch_installed { epoch; workflow } -> (
          match Serialize.parse workflow with
          | Ok (ewf, _) -> ignore (Engine.migrate ~epoch engine ewf)
          | Error e -> Alcotest.fail e))
    records;
  if Engine.pending engine > 0 then
    ignore (Engine.drain engine);
  engine

(* The decodable entry prefix of a WAL, with byte offsets — replay
   stops at the first record that fails to decode, exactly like
   [Store.recover]'s tail handling. *)
let surviving_entries path =
  match Wal.scan path with
  | Error e -> Alcotest.fail e
  | Ok scan ->
      let rec take acc = function
        | [] -> List.rev acc
        | (offset, payload) :: rest -> (
            match Record.decode payload with
            | Ok r -> take ((offset, r) :: acc) rest
            | Error _ -> List.rev acc)
      in
      take [] scan.Wal.entries

(* The WAL offset the shard's snapshot is keyed to (0 when it never
   snapshotted): records below it are durable via the snapshot even if
   the WAL loses them. *)
let snapshot_offset dir =
  let path = Store.snapshot_path dir in
  if not (Sys.file_exists path) then 0
  else
    let text = In_channel.with_open_bin path In_channel.input_all in
    match Json.parse text with
    | Error e -> Alcotest.failf "unreadable snapshot %s: %s" path e
    | Ok json -> (
        match Json.member "wal_offset" json with
        | Some (Json.Number n) -> int_of_float n
        | _ -> Alcotest.failf "snapshot %s has no wal_offset" path)

let state_string engine = Json.to_string (Store.snapshot_state_json engine)

(* One crash case: journal a sharded run (fsync never — close flushes),
   tear a random shard's WAL tail at a random byte, recover. The
   damaged shard must equal the reference fold of its surviving record
   prefix, every other shard must equal its captured pre-crash state,
   and resume + compact + verify must leave the whole group
   strict-clean. *)
let crash_case ~seed params =
  let algorithm = Algorithms.Remove_first_edge in
  let engine_seed = 123 in
  let instance = Generator.generate ~seed params in
  let wf = instance.Generator.workflow in
  let pairs = connected_pairs wf in
  pairs = [||]
  ||
  with_root @@ fun root ->
  let rng = Splitmix.create (seed lxor 0xFA17) in
  let shards = 2 + Splitmix.int rng 3 in
  let group = Serving.create ~algorithm ~seed:engine_seed ~shards wf in
  Serving.journal ~fsync:Wal.Never ~dir:root group;
  let rounds =
    script ~seed ~users:7 ~rounds:2 ~n_vertices:(Workflow.n_vertices wf) pairs
  in
  List.iteri
    (fun i round ->
      List.iter (fun (user, rq) -> Serving.submit group ~user rq) round;
      ignore (Serving.drain group);
      (* Half the sweep snapshots mid-history, so recovery exercises
         the snapshot-plus-tail path too. *)
      if i = 0 && seed mod 2 = 0 then Serving.snapshot group)
    rounds;
  let pre_crash =
    Array.map state_string (Array.map Fun.id (Serving.engines group))
  in
  Serving.close group;
  let damaged = Splitmix.int rng shards in
  let wal =
    match Store.current_wal_path (Serving.shard_dir root damaged) with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let size = (Unix.stat wal).Unix.st_size in
  if size = 0 then true
  else begin
    (* Capture the full (still intact) record history and the snapshot
       boundary before tearing: anything below the boundary survives
       the tear through the snapshot file, anything at or above it only
       survives as far as the decodable prefix reaches. *)
    let boundary = snapshot_offset (Serving.shard_dir root damaged) in
    let pre_tear = surviving_entries wal in
    Fault.truncate_tail wal (1 + Splitmix.int rng size);
    let survivors = surviving_entries wal in
    let reference_records =
      List.filter_map
        (fun (off, r) -> if off < boundary then Some r else None)
        pre_tear
      @ List.filter_map
          (fun (off, r) -> if off >= boundary then Some r else None)
          survivors
    in
    (match Serving.recover root with
    | Error e -> Alcotest.failf "group recovery failed: %s" e
    | Ok r ->
        Alcotest.(check int) "all shards recovered" shards
          (Array.length r.Serving.shard_recoveries);
        (* Only the shard we damaged may report a dirty tail. *)
        List.iter
          (fun i ->
            Alcotest.(check int) "dirty tail only on the damaged shard"
              damaged i)
          r.Serving.damaged;
        Array.iteri
          (fun i (sr : Store.recovery) ->
            if i = damaged then begin
              let reference =
                apply_records ~algorithm ~seed:engine_seed wf reference_records
              in
              Alcotest.(check string)
                "damaged shard = reference fold of its surviving prefix"
                (state_string reference)
                (state_string sr.Store.engine)
            end
            else
              Alcotest.(check string)
                (Printf.sprintf "undamaged shard %d untouched" i)
                pre_crash.(i)
                (state_string sr.Store.engine))
          r.Serving.shard_recoveries);
    (* Resume truncates the torn tail; compaction folds every shard's
       log away; verification must then be strict-clean group-wide. *)
    (match Serving.resume root with
    | Error e -> Alcotest.failf "group resume failed: %s" e
    | Ok { Serving.serving; _ } ->
        Serving.compact serving;
        Serving.close serving);
    match Serving.verify root with
    | Error e -> Alcotest.failf "group verify failed: %s" e
    | Ok reports ->
        Array.for_all Store.report_clean reports
        && Array.length reports = shards
  end

let test_crash_recovery_sweep () =
  Test_helpers.check_seeded
    ~params:
      {
        Gen_params.default with
        Gen_params.n_vertices = 30;
        n_constraints = 0;
        stages = 4;
      }
    ~seeds:(List.init 50 (fun i -> 400 + (13 * i)))
    "sharded crash-recovery sweep"
    (fun ~seed params -> crash_case ~seed params)

(* Shard count is pinned: recovery of a root whose group.json says N
   only ever touches shard-0..N-1, and a root with no ledger at all or
   a garbled group.json is a clean error, not a crash. *)
let test_group_manifest_errors () =
  with_root @@ fun root ->
  (match Serving.recover root with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "recover of an empty root succeeded");
  let oc = open_out (Filename.concat root "group.json") in
  output_string oc "{\"version\":1}\n";
  close_out oc;
  match Serving.verify root with
  | Error msg ->
      Alcotest.(check bool) "error names group.json" true
        (String.length msg >= 10)
  | Ok _ -> Alcotest.fail "verify with garbled group.json succeeded"

(* ---------------------------------------------------------------- *)
(* Merged observability                                               *)

let test_merged_metrics_and_prometheus () =
  let instance = Generator.generate ~seed:31 Gen_params.dataset2_base in
  let wf = instance.Generator.workflow in
  let pairs = connected_pairs wf in
  (* 16 users of these names populate all 4 shards (pinned by the
     routing test above), so every shard exposes counter series. *)
  let rounds =
    script ~seed:31 ~users:16 ~rounds:2
      ~n_vertices:(Workflow.n_vertices wf)
      pairs
  in
  let group, _, _ =
    run_sharded ~algorithm:Algorithms.Remove_first_edge ~seed:31 ~shards:4
      wf rounds
  in
  let module Metrics = Cdw_engine.Metrics in
  let merged = Serving.metrics group in
  let sum name =
    Array.fold_left
      (fun acc e -> acc + Metrics.counter (Engine.metrics e) name)
      0 (Serving.engines group)
  in
  List.iter
    (fun name ->
      Alcotest.(check int)
        (Printf.sprintf "merged counter %s = per-shard sum" name)
        (sum name) (Metrics.counter merged name))
    [ "engine.submitted"; "engine.drains"; "engine.sessions.created" ];
  Alcotest.(check bool) "some submits were counted" true
    (Metrics.counter merged "engine.submitted" > 0);
  (* The shard-labelled exposition parses and carries one shard label
     per series sample of a counter that every shard touched. *)
  match Cdw_obs.Prom.parse (Serving.prometheus group) with
  | Error e -> Alcotest.failf "group exposition does not parse: %s" e
  | Ok samples ->
      let shard_labels =
        List.sort_uniq compare
          (List.filter_map
             (fun (s : Cdw_obs.Prom.sample) ->
               if s.Cdw_obs.Prom.metric = "cdw_engine_submitted" then
                 List.assoc_opt "shard" s.Cdw_obs.Prom.labels
               else None)
             samples)
      in
      Alcotest.(check (list string))
        "every shard exposes its own engine.submitted series"
        [ "0"; "1"; "2"; "3" ] shard_labels

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec loop i = i + m <= n && (String.sub s i m = sub || loop (i + 1)) in
  m = 0 || loop 0

(* Every pinned shard domain accounts its own drains: one drain of the
   quick script at two shards is one drain per shard, the items add up
   to the script, the four phases fit inside the drain's busy time,
   the group view merges counters by sum and levels by max, and the
   shard-labelled exposition carries each shard's series once, with the
   level series typed as gauges. One shard accounts nothing. *)
let test_two_shard_accounting () =
  let module Domain_acct = Cdw_engine.Domain_acct in
  let module Prom = Cdw_obs.Prom in
  let wf, script = Workbench.workload Workbench.quick in
  let drained shards =
    let serving =
      Serving.create ~algorithm:Workbench.quick.Workbench.algorithm
        ~seed:Workbench.quick.Workbench.seed ~shards wf
    in
    List.iter (fun (user, rq) -> Serving.submit serving ~user rq) script;
    ignore (Serving.drain serving);
    serving
  in
  let serving = drained 2 in
  let stats = Serving.domain_stats serving in
  Alcotest.(check (list int)) "one stats entry per shard" [ 0; 1 ]
    (List.map (fun s -> s.Domain_acct.s_shard) stats);
  List.iter
    (fun (s : Domain_acct.stats) ->
      Alcotest.(check int)
        (Printf.sprintf "shard %d drained once" s.s_shard)
        1 s.s_drains;
      let phases =
        s.s_sort_us + s.s_journal_us + s.s_execute_us + s.s_gather_us
      in
      Alcotest.(check bool)
        (Printf.sprintf "shard %d: phases %d us <= busy %d us" s.s_shard phases
           s.s_busy_us)
        true (phases <= s.s_busy_us))
    stats;
  Alcotest.(check int) "items add up to the script" (List.length script)
    (List.fold_left (fun acc s -> acc + s.Domain_acct.s_items) 0 stats);
  (* The group view merges the shards' registries: counters add, a
     level keeps the larger shard's value. *)
  let merged = Serving.metrics serving in
  Alcotest.(check int) "merged items = sum over shards"
    (List.length script)
    (Metrics.counter merged (Domain_acct.counter_key Items));
  Alcotest.(check (option (float 0.0))) "merged inbox peak = larger shard's"
    (Some
       (float_of_int
          (List.fold_left
             (fun acc s -> max acc s.Domain_acct.s_inbox_depth_peak)
             0 stats)))
    (Metrics.gauge merged (Domain_acct.gauge_key Inbox_depth_peak));
  let text = Serving.prometheus serving in
  (match Result.bind (Prom.parse text) Prom.lint with
  | Error e -> Alcotest.failf "2-shard exposition: %s" e
  | Ok _ -> ());
  let samples = Result.get_ok (Prom.parse text) in
  List.iter
    (fun shard ->
      Alcotest.(check int)
        (Printf.sprintf "cdw_domain_busy_us{shard=%S} once" shard)
        1
        (List.length
           (List.filter
              (fun (s : Prom.sample) ->
                s.metric = "cdw_domain_busy_us"
                && s.labels = [ ("shard", shard) ])
              samples)))
    [ "0"; "1" ];
  (* A level series may fall between scrapes: it is a gauge, never a
     counter. *)
  List.iter
    (fun name ->
      let typed kind =
        contains text (Printf.sprintf "# TYPE cdw_domain_%s %s\n" name kind)
      in
      Alcotest.(check bool) (name ^ " is a gauge") true
        (typed "gauge" && not (typed "counter")))
    [ "inbox_depth_last"; "inbox_depth_peak"; "journal_lag_peak_us" ];
  Serving.close serving;
  let one = drained 1 in
  Alcotest.(check bool) "one shard exposes no cdw_domain_ series" false
    (contains (Serving.prometheus one) "cdw_domain_");
  Serving.close one

(* ---------------------------------------------------------------- *)
(* One base, and the one-shard shape                                  *)

let dataset2 () =
  (Generator.generate ~seed:29 Gen_params.dataset2_base).Generator.workflow

(* The group freezes the workflow once and every shard engine holds
   that base: the same frozen snapshot, and no second copy of the
   metadata (the second base adds only its own view mask). *)
let test_shards_share_one_base () =
  let group = Serving.create ~shards:2 (dataset2 ()) in
  let bases = Array.map Engine.base (Serving.engines group) in
  let frozen b = Digraph.frozen_base (Workflow.graph b) in
  Alcotest.(check bool) "one frozen snapshot" true
    (match (frozen bases.(0), frozen bases.(1)) with
    | Some f0, Some f1 -> f0 == f1
    | _ -> false);
  let words x = Obj.reachable_words (Obj.repr x) in
  let one = words bases.(0) in
  let extra = words (bases.(0), bases.(1)) - one in
  Alcotest.(check bool)
    (Printf.sprintf "second base adds %d words to %d" extra one)
    true
    (extra * 20 < one);
  Serving.close group

let one_shard_rounds () =
  let wf = dataset2 () in
  let n_vertices = Workflow.n_vertices wf in
  (wf, script ~seed:29 ~users:8 ~rounds:2 ~n_vertices (connected_pairs wf))

let serve_round serving round =
  List.iter (fun (user, rq) -> Serving.submit serving ~user rq) round;
  ignore (Serving.drain serving)

(* One shard serves on the caller: a drain and a live migration spawn
   no pinned domain, so there is none to account. *)
let test_one_shard_spawns_no_domain () =
  let wf, rounds = one_shard_rounds () in
  let serving =
    Serving.create ~algorithm:Algorithms.Remove_last_edge ~seed:29 wf
  in
  List.iter (serve_round serving) rounds;
  let next = Evolve.mutate Evolve.default_step (Serving.base serving) in
  ignore (Serving.migrate serving next);
  Alcotest.(check int) "one shard" 1 (Serving.shards serving);
  Alcotest.(check int) "no pinned domain accounted" 0
    (List.length (Serving.domain_stats serving));
  Serving.close serving

(* A fresh journaled one-shard value uses the group layout. *)
let test_one_shard_group_layout () =
  with_root @@ fun root ->
  let wf, rounds = one_shard_rounds () in
  let serving =
    Serving.create ~algorithm:Algorithms.Remove_first_edge ~seed:29 wf
  in
  Serving.journal ~fsync:Wal.Never ~dir:root serving;
  List.iter (serve_round serving) rounds;
  let served = Serving.session_states serving in
  Serving.close serving;
  Alcotest.(check bool) "group.json written" true
    (Sys.file_exists (Filename.concat root "group.json"));
  Alcotest.(check bool) "shard-0/ holds the store" true
    (Sys.file_exists (Store.manifest_path (Serving.shard_dir root 0)));
  match Serving.resume root with
  | Error e -> Alcotest.failf "resume failed: %s" e
  | Ok { Serving.serving; _ } ->
      Alcotest.(check int) "resumes as one shard" 1 (Serving.shards serving);
      Alcotest.(check bool) "resumed = served" true
        (Serving.session_states serving = served);
      Serving.close serving

(* A root ledger one engine wrote ([Store.create_for], no group.json)
   resumes as a one-shard group that keeps serving and journals into
   the same root. *)
let test_root_ledger_resumes_as_one_shard () =
  with_root @@ fun root ->
  let wf, rounds = one_shard_rounds () in
  let engine =
    Engine.create ~algorithm:Algorithms.Remove_first_edge ~seed:29 wf
  in
  let store = Store.create_for ~fsync:Wal.Never ~dir:root engine in
  List.iter (fun (user, rq) -> Engine.submit engine ~user rq) (List.hd rounds);
  ignore (Engine.drain engine);
  Store.close store;
  let served =
    match Serving.resume root with
    | Error e -> Alcotest.failf "resume of a root ledger failed: %s" e
    | Ok { Serving.serving; damaged; _ } ->
        Alcotest.(check int) "resumes as one shard" 1 (Serving.shards serving);
        Alcotest.(check (list int)) "no damage" [] damaged;
        List.iter (serve_round serving) (List.tl rounds);
        let served = Serving.session_states serving in
        Serving.close serving;
        served
  in
  Alcotest.(check bool) "no group.json written" false
    (Sys.file_exists (Filename.concat root "group.json"));
  Alcotest.(check bool) "no shard-0/ written" false
    (Sys.file_exists (Serving.shard_dir root 0));
  (match Serving.resume root with
  | Error e -> Alcotest.failf "second resume failed: %s" e
  | Ok { Serving.serving; _ } ->
      Alcotest.(check bool) "second resume = served state" true
        (Serving.session_states serving = served);
      Serving.close serving);
  match Serving.verify root with
  | Error e -> Alcotest.failf "verify failed: %s" e
  | Ok reports ->
      Alcotest.(check int) "one root ledger" 1 (Array.length reports);
      Alcotest.(check bool) "strict-clean" true
        (Array.for_all Store.report_clean reports)

(* A plain root is shard 0 of a one-shard root at every entry point:
   verify, recover and resume read it, and a compaction bumps its
   generation and keeps its state, each user's constraint pairs in
   accepted order included. *)
let test_plain_root_every_entry_point () =
  with_root @@ fun root ->
  let wf, rounds = one_shard_rounds () in
  let engine =
    Engine.create ~algorithm:Algorithms.Remove_first_edge ~seed:29 wf
  in
  let store = Store.create_for ~fsync:Wal.Never ~dir:root engine in
  List.iter
    (fun round ->
      List.iter (fun (user, rq) -> Engine.submit engine ~user rq) round;
      ignore (Engine.drain engine))
    rounds;
  let served = Engine.session_states engine in
  Alcotest.(check bool) "a user's accepted order is not the sorted one" true
    (List.exists (fun (_, ps, _) -> ps <> List.sort compare ps) served);
  Store.close store;
  (match Serving.verify root with
  | Error e -> Alcotest.failf "verify failed: %s" e
  | Ok reports ->
      Alcotest.(check int) "verify: one ledger" 1 (Array.length reports);
      Alcotest.(check bool) "verify: clean" true
        (Array.for_all Store.report_clean reports));
  let generation =
    match Serving.recover root with
    | Error e -> Alcotest.failf "recover failed: %s" e
    | Ok r ->
        Alcotest.(check int) "recover: one ledger" 1
          (Array.length r.Serving.shard_recoveries);
        Alcotest.(check (list int)) "recover: no damage" [] r.Serving.damaged;
        Alcotest.(check bool) "recover: records replayed" true
          (r.Serving.replayed > 0);
        let sr = r.Serving.shard_recoveries.(0) in
        Alcotest.(check bool) "recovered = served" true
          (Engine.session_states sr.Store.engine = served);
        sr.Store.generation
  in
  (match Serving.resume root with
  | Error e -> Alcotest.failf "resume failed: %s" e
  | Ok { Serving.serving; _ } ->
      Alcotest.(check bool) "resumed = served" true
        (Serving.session_states serving = served);
      Serving.compact serving;
      Alcotest.(check (array int)) "compaction bumps the generation"
        [| generation + 1 |]
        (Array.map Store.generation (Serving.stores serving));
      Serving.close serving);
  Alcotest.(check bool) "still a plain root" false
    (Sys.file_exists (Filename.concat root "group.json"));
  match Serving.resume root with
  | Error e -> Alcotest.failf "resume after compaction failed: %s" e
  | Ok { Serving.serving; _ } ->
      Alcotest.(check bool) "compaction keeps the state" true
        (Serving.session_states serving = served);
      Serving.close serving

(* ---------------------------------------------------------------- *)
(* Group commit: a shard's ingest reaches the kernel in one write      *)

(* Serve [sizes] as one drain each on a journaled 2-shard group. After
   every drain each shard's WAL file is exactly as long as the store
   says (nothing left in a user-space buffer), and [per_drain] sees the
   drain's appends and fsyncs for each shard. *)
let group_commit_case fsync sizes per_drain =
  let wf = (Generator.generate ~seed:31 Gen_params.dataset2_base).Generator.workflow in
  with_root @@ fun root ->
  let group =
    Serving.create ~algorithm:Algorithms.Remove_first_edge ~seed:7
      ~shards:2 wf
  in
  Fun.protect ~finally:(fun () -> Serving.close group) @@ fun () ->
  Serving.journal ~fsync ~dir:root group;
  let stores = Serving.stores group in
  Alcotest.(check int) "one store per shard" 2 (Array.length stores);
  let counter i key =
    Metrics.counter (Engine.metrics (Serving.engines group).(i)) key
  in
  let counts i = (counter i "store.wal.appends", counter i "store.wal.fsyncs") in
  List.iteri
    (fun round size ->
      let before = Array.init 2 counts in
      for k = 0 to size - 1 do
        Serving.submit group
          ~user:(Printf.sprintf "gc-%03d" ((k + round) mod 100))
          (Engine.Add [])
      done;
      ignore (Serving.drain group);
      Array.iteri
        (fun i store ->
          let wal =
            match Store.current_wal_path (Serving.shard_dir root i) with
            | Ok p -> p
            | Error e -> Alcotest.fail e
          in
          Alcotest.(check int)
            (Printf.sprintf "round %d shard %d: WAL on disk = wal_length" round i)
            (Store.wal_length store) (Unix.stat wal).Unix.st_size;
          let a0, f0 = before.(i) in
          let a1, f1 = counts i in
          per_drain ~round ~shard:i ~appends:(a1 - a0) ~fsyncs:(f1 - f0))
        stores)
    sizes

let test_group_commit_on_disk () =
  group_commit_case (Wal.Every 32) [ 1; 10; 333; 0; 2_000; 37 ]
    (fun ~round:_ ~shard:_ ~appends:_ ~fsyncs:_ -> ())

let test_group_commit_every () =
  group_commit_case (Wal.Every 32) [ 2_000 ]
    (fun ~round:_ ~shard ~appends ~fsyncs ->
      Alcotest.(check bool)
        (Printf.sprintf "shard %d ingested about 1,000 records (%d)" shard appends)
        true (appends >= 500);
      Alcotest.(check bool)
        (Printf.sprintf "shard %d: at most 2 fsyncs for the drain (%d)" shard fsyncs)
        true (fsyncs <= 2))

let test_group_commit_always () =
  group_commit_case Wal.Always [ 1; 10; 100; 3 ]
    (fun ~round ~shard ~appends ~fsyncs ->
      if appends > 0 then
        Alcotest.(check bool)
          (Printf.sprintf "round %d shard %d: a non-empty drain fsyncs" round shard)
          true (fsyncs >= 1))

(* ---------------------------------------------------------------- *)
(* The ledger holds what replay reads                                 *)

let current_wal_records dir =
  match Store.current_wal_path dir with
  | Error e -> Alcotest.fail e
  | Ok path -> List.map snd (surviving_entries path)

(* Every session a drain creates is named by a request journaled before
   that drain's mark, so a ledger carries no [open] record, and
   recovery still rebuilds exactly the served pool. *)
let test_ledger_has_no_open_records () =
  List.iter
    (fun shards ->
      with_root @@ fun root ->
      let wf, rounds = one_shard_rounds () in
      let serving =
        Serving.create ~algorithm:Algorithms.Remove_first_edge ~seed:29 ~shards
          wf
      in
      Serving.journal ~fsync:Wal.Never ~dir:root serving;
      List.iter (serve_round serving) rounds;
      let served = Serving.session_states serving in
      Serving.close serving;
      let records =
        List.concat
          (List.init shards (fun i ->
               current_wal_records (Serving.shard_dir root i)))
      in
      Alcotest.(check bool)
        (Printf.sprintf "%d shard(s): the ledger holds the run" shards)
        true
        (List.exists (function Record.Drain _ -> true | _ -> false) records);
      Alcotest.(check int)
        (Printf.sprintf "%d shard(s): no open record" shards)
        0
        (List.length
           (List.filter
              (function Record.Session_open _ -> true | _ -> false)
              records));
      match Serving.resume root with
      | Error e -> Alcotest.failf "resume failed: %s" e
      | Ok { Serving.serving; _ } ->
          Alcotest.(check bool)
            (Printf.sprintf "%d shard(s): recovered = served" shards)
            true
            (Serving.session_states serving = served);
          Serving.close serving)
    [ 1; 2 ]

(* Reading a user that has no request creates no served state: the
   ledger could not reproduce it. *)
let test_reading_unknown_user_creates_nothing () =
  List.iter
    (fun shards ->
      with_root @@ fun root ->
      let wf, rounds = one_shard_rounds () in
      let serving =
        Serving.create ~algorithm:Algorithms.Remove_first_edge ~seed:29 ~shards
          wf
      in
      let read user =
        Alcotest.(check (list (pair int int)))
          (user ^ " reads as a fresh session")
          []
          (Constraint_set.pairs (Session.constraints (Serving.session serving user)))
      in
      read "before-journal";
      Serving.journal ~fsync:Wal.Never ~dir:root serving;
      read "journaled";
      List.iter (serve_round serving) rounds;
      read "after-drains";
      let before = Serving.session_states serving in
      Alcotest.(check bool)
        (Printf.sprintf "%d shard(s): only users with a request are held"
           shards)
        true
        (List.for_all
           (fun (u, _, _) ->
             not (List.mem u [ "before-journal"; "journaled"; "after-drains" ]))
           before);
      Serving.close serving;
      match Serving.resume root with
      | Error e -> Alcotest.failf "resume failed: %s" e
      | Ok { Serving.serving; _ } ->
          Alcotest.(check bool)
            (Printf.sprintf "%d shard(s): resumed = served" shards)
            true
            (Serving.session_states serving = before);
          Serving.close serving)
    [ 1; 2 ]

(* A shard worker that exits hands its buffer (trace events and flight
   ring) to the next domain: creating and closing groups does not grow
   the registry. *)
let test_group_cycles_keep_registries_bounded () =
  let wf, script = Workbench.workload Workbench.quick in
  let cycle () =
    let serving = Serving.create ~shards:2 wf in
    List.iter (fun (user, rq) -> Serving.submit serving ~user rq) script;
    ignore (Serving.drain serving);
    Serving.close serving
  in
  cycle ();
  let buffers = Trace.buffer_count () in
  for _ = 1 to 20 do
    cycle ()
  done;
  Alcotest.(check int) "per-domain buffers after 20 more groups" buffers
    (Trace.buffer_count ())

let suite =
  [
    ("differential: dataset presets x {1,2,4,7} shards", `Slow, test_differential_datasets);
    ("differential: random instances (20 seeds)", `Slow, test_differential_random);
    ("routing: stable and spread", `Quick, test_routing_stability);
    ("crash recovery: torn-shard sweep (50 seeds)", `Slow, test_crash_recovery_sweep);
    ("group manifest: errors are clean", `Quick, test_group_manifest_errors);
    ("observability: merged metrics + labelled exposition", `Quick, test_merged_metrics_and_prometheus);
    ("observability: 2-shard domain accounting + exposition", `Quick, test_two_shard_accounting);
    ("one base: shard engines share the group's frozen base", `Quick, test_shards_share_one_base);
    ("one shard: drain and migrate spawn no domain", `Quick, test_one_shard_spawns_no_domain);
    ("one shard: a journaled value writes group.json + shard-0/", `Quick, test_one_shard_group_layout);
    ("one shard: a root ledger resumes and journals in place", `Quick, test_root_ledger_resumes_as_one_shard);
    ("plain root: verify, recover, resume and compaction read shard 0", `Quick, test_plain_root_every_entry_point);
    ("group commit: WAL on disk = wal_length after every drain", `Quick, test_group_commit_on_disk);
    ("group commit: every:32 fsyncs at most twice per shard drain", `Quick, test_group_commit_every);
    ("group commit: always fsyncs every non-empty shard drain", `Quick, test_group_commit_always);
    ("ledger: no open record at 1 and 2 shards, recovered = served", `Quick, test_ledger_has_no_open_records);
    ("ledger: reading an unknown user creates no state", `Quick, test_reading_unknown_user_creates_nothing);
    ("domains: 20 group cycles keep flight rings and trace buffers bounded", `Quick, test_group_cycles_keep_registries_bounded);
  ]
