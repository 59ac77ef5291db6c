module Algorithms = Cdw_core.Algorithms
module Constraint_set = Cdw_core.Constraint_set
module Serialize = Cdw_core.Serialize
module Workflow = Cdw_core.Workflow
module Engine = Cdw_engine.Engine
module Metrics = Cdw_engine.Metrics
module Session = Cdw_engine.Session
module Shared_index = Cdw_engine.Shared_index
module Json = Cdw_util.Json
module Trace = Cdw_obs.Trace

let ( let* ) = Result.bind

let manifest_path dir = Filename.concat dir "manifest.json"
let snapshot_path dir = Filename.concat dir "snapshot.json"
let wal_path dir ~generation =
  Filename.concat dir (Printf.sprintf "wal-%06d.log" generation)

(* ---------------------------------------------------------------- *)
(* Vertex naming. The ledger refers to vertices by name (stable across
   workflow reloads, auditable without the id layout). Requests may
   legitimately carry ids that never named a vertex — users submit
   garbage, the engine answers with an error reply — and the log must
   reproduce them faithfully, so such ids journal as "#<id>" and
   resolve back to the same (still invalid) id on replay. *)

let encode_vertex wf id =
  if id >= 0 && id < Workflow.n_vertices wf then Workflow.name wf id
  else "#" ^ string_of_int id

let decode_vertex wf name =
  match Workflow.vertex_of_name wf name with
  | Some id -> Ok id
  | None ->
      if String.length name > 1 && name.[0] = '#' then
        match int_of_string_opt (String.sub name 1 (String.length name - 1)) with
        | Some id -> Ok id
        | None -> Error (Printf.sprintf "unresolvable vertex %S" name)
      else Error (Printf.sprintf "unknown vertex %S" name)

let encode_pairs wf = List.map (fun (s, t) -> (encode_vertex wf s, encode_vertex wf t))

let decode_pairs wf pairs =
  List.fold_left
    (fun acc (s, t) ->
      let* acc = acc in
      let* s = decode_vertex wf s in
      let* t = decode_vertex wf t in
      Ok ((s, t) :: acc))
    (Ok []) pairs
  |> Result.map List.rev

(* ---------------------------------------------------------------- *)
(* File helpers                                                       *)

let read_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | s -> Ok s
  | exception Sys_error msg -> Error msg

let fsync_dir dir =
  (* Make a rename durable. Failure is survivable (some filesystems
     refuse fsync on directories): worst case the rename is ordered by
     the next journal fsync. *)
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      Unix.close fd
  | exception Unix.Unix_error _ -> ()

(* Atomic publication: write to a tmp file, fsync, rename over the
   destination. Readers see either the old file or the new, never a
   prefix. *)
let write_atomic path content =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc content;
  flush oc;
  Unix.fsync (Unix.descr_of_out_channel oc);
  close_out oc;
  Sys.rename tmp path;
  fsync_dir (Filename.dirname path)

(* ---------------------------------------------------------------- *)
(* Manifest                                                           *)

type manifest = {
  m_algorithm : Algorithms.name;
  m_seed : int;
  m_workflow : Workflow.t;
}

let manifest_json ~algorithm ~seed wf =
  Json.Object
    [
      ("version", Json.Number 1.0);
      ("algorithm", Json.String (Algorithms.to_string algorithm));
      ("seed", Json.Number (float_of_int seed));
      ("workflow", Json.String (Serialize.to_string wf));
    ]

let json_field json key to_type =
  match Option.bind (Json.member key json) to_type with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "field %S missing or mistyped" key)

let read_manifest dir =
  let* text = read_file (manifest_path dir) in
  let* json =
    Result.map_error (fun e -> "manifest: " ^ e) (Json.parse text)
  in
  let* algo_name = json_field json "algorithm" Json.to_text in
  let* algorithm =
    match Algorithms.of_string algo_name with
    | Some a -> Ok a
    | None -> Error (Printf.sprintf "manifest: unknown algorithm %S" algo_name)
  in
  let* seed = json_field json "seed" Json.to_float in
  let* wf_text = json_field json "workflow" Json.to_text in
  let* wf, _ =
    Result.map_error (fun e -> "manifest workflow: " ^ e)
      (Serialize.parse wf_text)
  in
  Ok { m_algorithm = algorithm; m_seed = int_of_float seed; m_workflow = wf }

(* ---------------------------------------------------------------- *)
(* Snapshot                                                           *)

type snapshot_user = {
  u_name : string;
  u_pairs : (string * string) list;
  u_cuts : (string * string) list option;
      (* the session's cut edges (removed relative to the shared base)
         as (src, dst) name pairs; [None] for legacy snapshots, which
         recover by re-solving instead of installing the cuts *)
}

type snapshot = {
  s_generation : int;
  s_offset : int;
  s_epoch : int;
      (* base epoch the per-user state is relative to; 0 for snapshots
         written before format 3.0 (which predate epochs entirely) *)
  s_workflow : string option;
      (* the epoch's base workflow text (format 3.0); [None] for
         legacy snapshots, whose base is the manifest's workflow *)
  s_users : snapshot_user list;
}

let pairs_json pairs =
  Json.Array
    (List.map (fun (s, t) -> Json.Array [ Json.String s; Json.String t ]) pairs)

(* Users sorted and cut edges sorted; each user's pairs sorted when
   [sort_pairs], else in accepted order. A snapshot stores accepted
   order: solvers iterate constraints in list order, so a session
   restored in any other order could re-solve differently from the
   one that was served. *)
let state_json ~sort_pairs engine =
  let wf = Shared_index.base (Engine.index engine) in
  let g = Workflow.graph wf in
  let users =
    List.map
      (fun (user, pairs, cut_ids) ->
        let pairs = encode_pairs wf pairs in
        let pairs = if sort_pairs then List.sort compare pairs else pairs in
        (* Cut edges are removals relative to the base, so each id names
           an edge that is live in the base: (src, dst) names identify it
           across reloads, like vertex names do for constraint pairs. *)
        let cuts =
          List.map
            (fun id ->
              let e = Cdw_graph.Digraph.edge g id in
              ( encode_vertex wf (Cdw_graph.Digraph.edge_src e),
                encode_vertex wf (Cdw_graph.Digraph.edge_dst e) ))
            cut_ids
          |> List.sort compare
        in
        Json.Object
          [
            ("user", Json.String user);
            ("pairs", pairs_json pairs);
            ("cuts", pairs_json cuts);
          ])
      (* Both tiers — resident sessions and parked records — already
         sorted by user; a snapshot must not lose evicted users. *)
      (Engine.session_states engine)
  in
  Json.Object [ ("users", Json.Array users) ]

let snapshot_state_json = state_json ~sort_pairs:true
let snapshot_body = state_json ~sort_pairs:false

(* Version 2 added per-user "cuts"; version 3 adds the base epoch and
   its workflow text (live base evolution). Version-1 snapshots (no
   cuts field) still read fine and recover through the re-solve path;
   1.x/2.0 snapshots have no epoch field and recover as the implicit
   epoch 0 on the manifest's workflow. *)
let snapshot_json ~generation ~offset ~epoch ~workflow state =
  Json.Object
    [
      ("version", Json.Number 3.0);
      ("generation", Json.Number (float_of_int generation));
      ("wal_offset", Json.Number (float_of_int offset));
      ("epoch", Json.Number (float_of_int epoch));
      ("workflow", Json.String workflow);
      ("state", state);
    ]

let read_snapshot dir =
  if not (Sys.file_exists (snapshot_path dir)) then Ok None
  else
    let* text = read_file (snapshot_path dir) in
    let* json =
      Result.map_error (fun e -> "snapshot: " ^ e) (Json.parse text)
    in
    let* generation = json_field json "generation" Json.to_float in
    let* offset = json_field json "wal_offset" Json.to_float in
    (* Absent before format 3.0: such state is implicitly epoch 0 on
       the manifest's workflow. *)
    let epoch =
      match Option.bind (Json.member "epoch" json) Json.to_float with
      | Some e -> int_of_float e
      | None -> 0
    in
    let workflow = Option.bind (Json.member "workflow" json) Json.to_text in
    let* state =
      match Json.member "state" json with
      | Some s -> Ok s
      | None -> Error "snapshot: missing field \"state\""
    in
    let* user_objs = json_field state "users" Json.to_list in
    let parse_pairs objs =
      List.fold_left
        (fun acc p ->
          let* acc = acc in
          match p with
          | Json.Array [ Json.String s; Json.String t ] -> Ok ((s, t) :: acc)
          | _ -> Error "snapshot: malformed pair")
        (Ok []) objs
      |> Result.map List.rev
    in
    let* users =
      List.fold_left
        (fun acc obj ->
          let* acc = acc in
          let* user = json_field obj "user" Json.to_text in
          let* pair_objs = json_field obj "pairs" Json.to_list in
          let* pairs = parse_pairs pair_objs in
          (* Pre-cuts snapshots have no "cuts" field; recovery re-solves
             them instead of installing state directly. *)
          let* cuts =
            match Json.member "cuts" obj with
            | None -> Ok None
            | Some c -> (
                match Json.to_list c with
                | None -> Error "snapshot: malformed cuts"
                | Some objs -> Result.map Option.some (parse_pairs objs))
          in
          Ok ({ u_name = user; u_pairs = pairs; u_cuts = cuts } :: acc))
        (Ok []) user_objs
    in
    Ok
      (Some
         {
           s_generation = int_of_float generation;
           s_offset = int_of_float offset;
           s_epoch = epoch;
           s_workflow = workflow;
           s_users = List.rev users;
         })

(* ---------------------------------------------------------------- *)
(* The open ledger                                                    *)

type t = {
  t_dir : string;
  fsync : Wal.fsync_policy;
  snapshot_every : int;
  mutable gen : int;
  mutable wal : Wal.t;
  mutable last_snapshot_len : int;
  mutable boundary : int;
      (* WAL length just past the last journaled [Drain] mark (or the
         last snapshot) — the only offsets a snapshot may be keyed to:
         every record before a boundary is applied session state, every
         record after it is still queued and will replay. *)
  mutable metrics : Metrics.t option;
      (* the attached engine's metrics; WAL/snapshot dark counters land
         here so one registry serves the whole process *)
  lock : Mutex.t;  (* guards generation rollover vs appends *)
}

(* Lock order, engine → store: Engine.submit/drain hold the engine
   lock while the journal hook takes this store's lock, so nothing
   below may call back into the engine (Engine.sessions, Engine.pending,
   snapshot_state_json, …) while holding [lock] — capture engine state
   first, lock second. *)

let generation t = t.gen
let wal_length t = Wal.length t.wal

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let log t record = with_lock t (fun () -> Wal.append t.wal (Record.encode record))

(* The log is captured once: a compaction inside [f] (a caller bug —
   compaction wants quiescence) closes it, and the commit then finds
   it closed and does nothing. *)
let group_commit t f = Wal.group_commit (with_lock t (fun () -> t.wal)) f

(* Mirror WAL activity into the attached engine's metrics. The observer
   fires under the WAL lock; a metrics update takes no lock but a
   name's first registration, a leaf lock, so this respects the engine
   → store → wal lock order. *)
let wal_observer m =
  {
    Wal.on_append =
      (fun ~bytes ->
        Metrics.incr m "store.wal.appends";
        Metrics.incr ~by:bytes m "store.wal.appended_bytes");
    on_fsync = (fun () -> Metrics.incr m "store.wal.fsyncs");
  }

let wire_metrics t m =
  t.metrics <- Some m;
  Wal.set_observer t.wal (wal_observer m)

let count t key = Option.iter (fun m -> Metrics.incr m key) t.metrics

let close t = with_lock t (fun () -> Wal.close t.wal)

let default_snapshot_every = 1 lsl 20

let create ?fsync ?(snapshot_every_bytes = default_snapshot_every) ~dir
    ~algorithm ~seed wf =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  (* Drop any previous ledger: stale WALs of other generations included. *)
  Array.iter
    (fun f ->
      if
        f = "manifest.json" || f = "snapshot.json"
        || (String.length f >= 4 && String.sub f 0 4 = "wal-")
        || Filename.check_suffix f ".tmp"
      then Sys.remove (Filename.concat dir f))
    (Sys.readdir dir);
  write_atomic (manifest_path dir)
    (Json.to_string (manifest_json ~algorithm ~seed wf) ^ "\n");
  let wal = Wal.create ?fsync (wal_path dir ~generation:0) in
  {
    t_dir = dir;
    fsync = Option.value fsync ~default:(Every 32 : Wal.fsync_policy);
    snapshot_every = snapshot_every_bytes;
    gen = 0;
    wal;
    last_snapshot_len = 0;
    boundary = 0;
    metrics = None;
    lock = Mutex.create ();
  }

let open_existing ?fsync dir =
  let* _manifest = read_manifest dir in
  let* snapshot = read_snapshot dir in
  let gen, offset =
    match snapshot with
    | Some s -> (s.s_generation, s.s_offset)
    | None -> (0, 0)
  in
  let wal = Wal.open_append ?fsync (wal_path dir ~generation:gen) in
  Ok
    {
      t_dir = dir;
      fsync = Option.value fsync ~default:(Every 32 : Wal.fsync_policy);
      snapshot_every = default_snapshot_every;
      gen;
      wal;
      last_snapshot_len = offset;
      boundary = offset;
      metrics = None;
      lock = Mutex.create ();
    }

(* ---------------------------------------------------------------- *)
(* Snapshots and compaction                                           *)

(* Publish a snapshot of pre-captured [state] keyed to [offset]
   (store lock held). [offset] must be a boundary: all state-bearing
   records at or before it applied, none after. The WAL is synced
   first, whatever the fsync policy: a durable snapshot over a log
   whose covered tail a crash can still lose would leave {!resume}
   appending below the snapshot's offset. *)
let publish_snapshot_locked t ~offset ~epoch ~workflow state =
  Wal.sync t.wal;
  Trace.span "store.snapshot" (fun () ->
      write_atomic (snapshot_path t.t_dir)
        (Json.to_string
           (snapshot_json ~generation:t.gen ~offset ~epoch ~workflow state)
         ^ "\n"));
  count t "store.snapshots";
  t.last_snapshot_len <- offset;
  t.boundary <- max t.boundary offset

(* The snapshot's base identity, captured together with the per-user
   state (same lock-order rule: engine reads happen before the store
   lock). The workflow text re-freezes to a bit-identical base on
   recovery, so 3.0 snapshots are self-contained whatever epoch the
   engine reached. *)
let snapshot_base_info engine =
  let base = Shared_index.base (Engine.index engine) in
  (Workflow.epoch base, Serialize.to_string base)

let write_snapshot t engine =
  (* Engine state is captured before the store lock (lock order); the
     caller guarantees quiescence, so the current WAL end is a valid
     boundary. *)
  if Engine.pending engine > 0 then
    invalid_arg "Store.write_snapshot: requests pending (drain first)";
  let state = snapshot_body engine in
  let epoch, workflow = snapshot_base_info engine in
  with_lock t (fun () ->
      publish_snapshot_locked t ~offset:(Wal.length t.wal) ~epoch ~workflow
        state)

let compact t engine =
  if Engine.pending engine > 0 then
    invalid_arg "Store.compact: requests pending (drain first)";
  let state = snapshot_body engine in
  let epoch, workflow = snapshot_base_info engine in
  Trace.span "store.compact" (fun () ->
  with_lock t (fun () ->
      let old_gen = t.gen in
      let new_gen = old_gen + 1 in
      (* Order matters: the new (empty) log must exist before the
         snapshot rename commits the generation switch; the old log is
         deleted last. A crash anywhere recovers to the same state. *)
      let new_wal = Wal.create ~fsync:t.fsync (wal_path t.t_dir ~generation:new_gen) in
      Wal.sync new_wal;
      write_atomic (snapshot_path t.t_dir)
        (Json.to_string
           (snapshot_json ~generation:new_gen ~offset:0 ~epoch ~workflow state)
         ^ "\n");
      Wal.close t.wal;
      t.wal <- new_wal;
      t.gen <- new_gen;
      t.last_snapshot_len <- 0;
      t.boundary <- 0;
      (* The rollover replaced the WAL; keep its appends visible. *)
      Option.iter (fun m -> Wal.set_observer t.wal (wal_observer m)) t.metrics;
      (try Sys.remove (wal_path t.t_dir ~generation:old_gen)
       with Sys_error _ -> ())));
  count t "store.compactions"

(* ---------------------------------------------------------------- *)
(* Journaling hooks                                                   *)

(* Auto-snapshot, run from [Drain_settled] with no locks held: the
   drained batch is applied and the offset it covers was captured when
   its [Drain] mark was journaled. Submitters racing us sit after that
   boundary in the WAL and simply replay on recovery, so unlike
   {!write_snapshot} this needs no quiescence check and never raises —
   if the world moved underneath (another snapshot, a compaction), it
   skips and the next drain retries. *)
let maybe_auto_snapshot t engine =
  let due =
    with_lock t (fun () ->
        if t.boundary - t.last_snapshot_len >= t.snapshot_every then
          Some (t.gen, t.boundary)
        else None)
  in
  match due with
  | None -> ()
  | Some (gen, boundary) ->
      (* Lock order engine → store: read the sessions first, lock the
         store second. *)
      let state = snapshot_body engine in
      let epoch, workflow = snapshot_base_info engine in
      with_lock t (fun () ->
          if t.gen = gen && t.boundary = boundary then
            publish_snapshot_locked t ~offset:boundary ~epoch ~workflow state)

let attach t engine =
  wire_metrics t (Engine.metrics engine);
  let hook event =
    (* The encoding base is looked up per event, not captured at
       attach: an epoch migration swaps the base, and records journaled
       after it must name vertices of the new base. ([Epoch_installed]
       itself is emitted before the swap and touches no vertex
       names.) *)
    let wf = Shared_index.base (Engine.index engine) in
    match event with
    | Engine.Submitted { user; request } -> (
        match request with
        | Engine.Add pairs ->
            log t (Record.Grant { user; pairs = encode_pairs wf pairs })
        | Engine.Withdraw pairs ->
            log t (Record.Withdraw { user; pairs = encode_pairs wf pairs })
        | Engine.Resolve -> log t (Record.Resolve { user }))
    | Engine.Session_closed { user } -> log t (Record.Session_close { user })
    | Engine.Drained { seq } ->
        (* One lock section for the mark and the boundary it defines:
           every record before it is this drain's (about-to-be-applied)
           batch, everything after is still queued. *)
        with_lock t (fun () ->
            Wal.append t.wal (Record.encode (Record.Drain { seq }));
            t.boundary <- Wal.length t.wal)
    | Engine.Drain_settled -> maybe_auto_snapshot t engine
    | Engine.Epoch_installed { epoch; workflow } ->
        log t (Record.Epoch_installed { epoch; workflow })
  in
  Engine.set_journal engine (Some hook)

let create_for ?fsync ~dir engine =
  let wf = Shared_index.base (Engine.index engine) in
  let t =
    create ?fsync ~dir ~algorithm:(Engine.algorithm engine)
      ~seed:(Engine.seed engine) wf
  in
  attach t engine;
  t

(* ---------------------------------------------------------------- *)
(* Recovery                                                           *)

type recovery = {
  engine : Engine.t;
  algorithm : Algorithms.name;
  seed : int;
  generation : int;
  snapshot_users : int;
  replayed : int;
  valid_end : int;
  tail : Wal.tail;
}

let scan_wal dir ~generation ~from =
  let path = wal_path dir ~generation in
  if not (Sys.file_exists path) then
    Ok { Wal.entries = []; valid_end = from; tail = Wal.Clean }
  else Wal.scan ~from path

let drain_now engine = ignore (Engine.drain engine)

(* Resolve a cut's (src, dst) names back to the base edge id. Cut edges
   are removed only in session views, never in the base, so a live-edge
   lookup on the engine's base workflow finds them. *)
let decode_cut wf (s, t) =
  let* s_id = decode_vertex wf s in
  let* t_id = decode_vertex wf t in
  match Cdw_graph.Digraph.find_edge (Workflow.graph wf) s_id t_id with
  | Some e -> Ok (Cdw_graph.Digraph.edge_id e)
  | None -> Error (Printf.sprintf "unknown cut edge %s -> %s" s t)

let restore_snapshot engine snapshot =
  (* State decodes against the engine's *current* base — for a 3.0
     snapshot the caller has already installed the snapshot's epoch, so
     names resolve in the base the state was captured on. *)
  let wf = Shared_index.base (Engine.index engine) in
  match snapshot with
  | None -> Ok 0
  | Some s ->
      let* () =
        List.fold_left
          (fun acc u ->
            let* () = acc in
            let* ids =
              Result.map_error (fun e -> "snapshot: " ^ e)
                (decode_pairs wf u.u_pairs)
            in
            match u.u_cuts with
            | Some cuts ->
                (* The snapshot carries the session's solved state (cut
                   edge set); install it directly — no solver run. *)
                let* removed_ids =
                  List.fold_left
                    (fun acc cut ->
                      let* acc = acc in
                      let* id =
                        Result.map_error (fun e -> "snapshot: " ^ e)
                          (decode_cut wf cut)
                      in
                      Ok (id :: acc))
                    (Ok []) cuts
                  |> Result.map List.rev
                in
                Result.map_error (fun e -> "snapshot: " ^ e)
                  (Engine.restore_session engine u.u_name ~constraints:ids
                     ~removed_ids)
            | None ->
                (* Legacy snapshot (constraints only): re-derive the cuts
                   by re-solving through the normal request path. *)
                Engine.open_session engine u.u_name;
                if ids <> [] then
                  Engine.submit engine ~user:u.u_name (Engine.Add ids);
                Ok ())
          (Ok ()) s.s_users
      in
      if Engine.pending engine > 0 then drain_now engine;
      Ok (List.length s.s_users)

(* Replay the decoded WAL tail. Decoding happens lazily, record by
   record: an undecodable or unresolvable record re-classifies the
   tail as corruption at that offset and stops the replay there —
   everything before it is already applied, which is exactly
   prefix-consistency. *)
let replay engine entries ~valid_end ~tail =
  Trace.span "store.replay"
    ~args:[ ("frames", string_of_int (List.length entries)) ]
  @@ fun () ->
  let rec loop replayed = function
    | [] ->
        if Engine.pending engine > 0 then drain_now engine;
        (replayed, valid_end, tail)
    | (offset, payload) :: rest -> (
        let applied =
          let* record =
            Result.map_error (fun e -> "undecodable record: " ^ e)
              (Record.decode payload)
          in
          (* Names resolve against the base of the moment: an
             [Epoch_installed] record swaps it mid-replay exactly where
             the live migration did. *)
          let wf = Shared_index.base (Engine.index engine) in
          match record with
          | Record.Grant { user; pairs } ->
              let* ids = decode_pairs wf pairs in
              Engine.submit engine ~user (Engine.Add ids);
              Ok ()
          | Record.Withdraw { user; pairs } ->
              let* ids = decode_pairs wf pairs in
              Engine.submit engine ~user (Engine.Withdraw ids);
              Ok ()
          | Record.Resolve { user } ->
              Engine.submit engine ~user Engine.Resolve;
              Ok ()
          | Record.Session_open { user } ->
              (* Only older builds wrote these. A drain that created
                 the session has already replayed (the record followed
                 its [Drain] mark), so only a user the engine does not
                 hold yet gets its empty session. *)
              Engine.open_session engine user;
              Ok ()
          | Record.Session_close { user } ->
              Engine.forget engine user;
              Ok ()
          | Record.Drain _ ->
              drain_now engine;
              Ok ()
          | Record.Epoch_installed { epoch; workflow } ->
              let* ewf, _ =
                Result.map_error (fun e -> "epoch workflow: " ^ e)
                  (Serialize.parse workflow)
              in
              ignore (Engine.migrate ~epoch engine ewf);
              Ok ()
          | Record.Cut_refined { user; cuts } ->
              (* Only ledgers written by older builds hold these.
                 Applied on sight, not at the next [Drain] record: the
                 live install ran inside the drain's dequeue lock
                 section, i.e. after the requests preceding it in the
                 WAL were queued and before any of them was served —
                 which is exactly this point of the replay. *)
              let* ids =
                List.fold_left
                  (fun acc cut ->
                    let* acc = acc in
                    let* id = decode_cut wf cut in
                    Ok (id :: acc))
                  (Ok []) cuts
                |> Result.map List.rev
              in
              Engine.apply_refined engine user ~cuts:ids
        in
        match applied with
        | Ok () -> loop (replayed + 1) rest
        | Error reason ->
            if Engine.pending engine > 0 then drain_now engine;
            (replayed, offset, Wal.Corrupt { offset; reason }))
  in
  loop 0 entries

let recover dir =
  Trace.span "store.recover" @@ fun () ->
  let* manifest = read_manifest dir in
  let* snapshot = read_snapshot dir in
  let generation =
    match snapshot with Some s -> s.s_generation | None -> 0
  in
  let from = match snapshot with Some s -> s.s_offset | None -> 0 in
  let* scan =
    Trace.span "store.scan" (fun () -> scan_wal dir ~generation ~from)
  in
  let wf = manifest.m_workflow in
  let engine =
    Engine.create ~algorithm:manifest.m_algorithm ~seed:manifest.m_seed wf
  in
  (* A 3.0 snapshot carries its own base: re-install that epoch before
     restoring per-user state, so cut names resolve where they were
     captured. The engine has no sessions yet, so the migrate is a pure
     install. 1.x/2.0 snapshots are the implicit epoch 0 — nothing to
     do. *)
  let* () =
    match snapshot with
    | Some s when s.s_epoch > 0 -> (
        match s.s_workflow with
        | None -> Error "snapshot: epoch set but workflow text missing"
        | Some text ->
            let* swf, _ =
              Result.map_error (fun e -> "snapshot workflow: " ^ e)
                (Serialize.parse text)
            in
            ignore (Engine.migrate ~epoch:s.s_epoch engine swf);
            Ok ())
    | _ -> Ok ()
  in
  let* snapshot_users = restore_snapshot engine snapshot in
  let replayed, valid_end, tail =
    replay engine scan.Wal.entries ~valid_end:scan.Wal.valid_end
      ~tail:scan.Wal.tail
  in
  (* Dark counters for what recovery saw: surfaced through the recovered
     engine's metrics so a post-crash serve run exports them. *)
  let m = Engine.metrics engine in
  Metrics.incr ~by:(List.length scan.Wal.entries) m "store.recover.frames";
  Metrics.incr ~by:replayed m "store.recover.replayed";
  Metrics.incr m
    (match tail with
    | Wal.Clean -> "store.recover.tail.clean"
    | Wal.Torn _ -> "store.recover.tail.torn"
    | Wal.Corrupt _ -> "store.recover.tail.corrupt");
  Ok
    {
      engine;
      algorithm = manifest.m_algorithm;
      seed = manifest.m_seed;
      generation;
      snapshot_users;
      replayed;
      valid_end;
      tail;
    }

let resume ?fsync dir =
  let* recovery = recover dir in
  let path = wal_path dir ~generation:recovery.generation in
  (* Drop the torn/corrupt tail so new appends extend a valid log. *)
  if Sys.file_exists path then begin
    let size = (Unix.stat path).Unix.st_size in
    if recovery.valid_end < size then Unix.truncate path recovery.valid_end
  end;
  let* t = open_existing ?fsync dir in
  attach t recovery.engine;
  (* A WAL shorter than its snapshot's offset lost a tail the snapshot
     covers (a ledger written before snapshots synced the WAL, or a
     damaged disk). Appends there would land below the offset, where
     the next recovery starts reading mid-record: roll to a fresh
     generation instead, as compaction does. *)
  if Wal.length t.wal < t.last_snapshot_len then compact t recovery.engine;
  Ok (t, recovery)

(* ---------------------------------------------------------------- *)
(* Verification                                                       *)

type report = {
  r_dir : string;
  r_algorithm : Algorithms.name;
  r_seed : int;
  r_vertices : int;
  r_edges : int;
  r_generation : int;
  r_has_snapshot : bool;
  r_snapshot_offset : int;
  r_snapshot_users : int;
  r_wal_bytes : int;
  r_valid_end : int;
  r_records : int;
  r_drains : int;
  r_epoch : int;
  r_tail : Wal.tail;
}

let current_wal_path dir =
  let* snapshot = read_snapshot dir in
  let generation =
    match snapshot with Some s -> s.s_generation | None -> 0
  in
  Ok (wal_path dir ~generation)

let verify dir =
  let* manifest = read_manifest dir in
  let* snapshot = read_snapshot dir in
  let generation =
    match snapshot with Some s -> s.s_generation | None -> 0
  in
  let* scan = scan_wal dir ~generation ~from:0 in
  let wal_file = wal_path dir ~generation in
  let wal_bytes =
    if Sys.file_exists wal_file then (Unix.stat wal_file).Unix.st_size else 0
  in
  (* Decode every frame: CRC protects bytes, not meaning. The ledger's
     final epoch is the snapshot's, advanced by every [Epoch_installed]
     record in the valid prefix (epochs are monotone). *)
  let snapshot_epoch = match snapshot with Some s -> s.s_epoch | None -> 0 in
  let records, drains, epoch, valid_end, tail =
    List.fold_left
      (fun (records, drains, epoch, valid_end, tail) (offset, payload) ->
        match tail with
        | Wal.Corrupt _ | Wal.Torn _ -> (records, drains, epoch, valid_end, tail)
        | Wal.Clean -> (
            match Record.decode payload with
            | Ok (Record.Drain _) ->
                (records + 1, drains + 1, epoch, valid_end, tail)
            | Ok (Record.Epoch_installed { epoch = e; _ }) ->
                (records + 1, drains, max epoch e, valid_end, tail)
            | Ok _ -> (records + 1, drains, epoch, valid_end, tail)
            | Error e ->
                ( records,
                  drains,
                  epoch,
                  offset,
                  Wal.Corrupt { offset; reason = "undecodable record: " ^ e } )))
      (0, 0, snapshot_epoch, scan.Wal.valid_end, Wal.Clean)
      scan.Wal.entries
  in
  let tail = match tail with Wal.Clean -> scan.Wal.tail | t -> t in
  Ok
    {
      r_dir = dir;
      r_algorithm = manifest.m_algorithm;
      r_seed = manifest.m_seed;
      r_vertices = Workflow.n_vertices manifest.m_workflow;
      r_edges = Workflow.n_edges manifest.m_workflow;
      r_generation = generation;
      r_has_snapshot = snapshot <> None;
      r_snapshot_offset =
        (match snapshot with Some s -> s.s_offset | None -> 0);
      r_snapshot_users =
        (match snapshot with Some s -> List.length s.s_users | None -> 0);
      r_wal_bytes = wal_bytes;
      r_valid_end = valid_end;
      r_records = records;
      r_drains = drains;
      r_epoch = epoch;
      r_tail = tail;
    }

let report_clean r = r.r_tail = Wal.Clean

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>ledger    %s@,\
     workflow  %d vertices, %d edges; algorithm %s, seed %d@,\
     snapshot  %s@,\
     wal       generation %d, %d bytes (%d valid), %d records, %d drains@,\
     epoch     %d@,\
     tail      %a@]"
    r.r_dir r.r_vertices r.r_edges
    (Algorithms.to_string r.r_algorithm)
    r.r_seed
    (if r.r_has_snapshot then
       Printf.sprintf "%d users at offset %d" r.r_snapshot_users
         r.r_snapshot_offset
     else "none")
    r.r_generation r.r_wal_bytes r.r_valid_end r.r_records r.r_drains
    r.r_epoch
    Wal.pp_tail r.r_tail
