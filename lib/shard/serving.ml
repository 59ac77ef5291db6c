module Algorithms = Cdw_core.Algorithms
module Domain_acct = Cdw_engine.Domain_acct
module Domain_pool = Cdw_engine.Domain_pool
module Engine = Cdw_engine.Engine
module Json = Cdw_util.Json
module Metrics = Cdw_engine.Metrics
module Store = Cdw_store.Store
module Tier = Cdw_engine.Tier
module Timing = Cdw_util.Timing
module Trace = Cdw_obs.Trace
module Wal = Cdw_store.Wal
module Workflow = Cdw_core.Workflow

(* One submitted request in flight between the lock-free submit path
   and its shard's drain. [seq] is the group-global submission number —
   the only thing the gather needs to reconstruct single-engine reply
   order. *)
type item = {
  seq : int;
  i_user : string;
  i_request : Engine.request;
  at_ms : float;  (* submit wall time, for end-to-end queue_wait *)
}

(* One user's replies out of one shard drain, tagged with the user's
   first-submission sequence number: the unit the gather sorts. *)
type gather = { g_seq : int; g_replies : Engine.reply list }

type shard = {
  position : int;
  engine : Engine.t;
  inbox : item Mpsc.t;
  pre_seq : (string, int) Hashtbl.t;
      (* first-submission seqs of items a migration ingested out of the
         inbox ahead of the next drain — the gather consults these so
         the merged reply order stays the single-engine order *)
  mutable pre_rejected : Engine.reply list;
      (* submits a migration's ingest saw the journal reject, newest
         first; answered by the next drain so no request goes silent *)
  mutable store : Store.t option;  (* the shard's ledger, once journaled *)
}

(* How a group drains: the two scheduling policies over
   [Domain_pool.Worker]. *)
type drainer =
  | Fanout of Domain_pool.t
      (* one shard: the caller and the pool's parked helpers steal the
         drain's user batches *)
  | Pinned of (gather list * float) Domain_pool.Worker.t array
      (* N shards: one worker per shard, spawned by its first drain; a
         job returns the shard's gathers and its finish time (µs), which
         the group drain uses to charge each shard's barrier wait *)

type t = {
  shards : int;
  members : shard array;
  seq : int Atomic.t;  (* global submission counter — the only shared
                          submit-path state, and it is lock-free *)
  drain_lock : Mutex.t;  (* serializes drains, worker spawn and close *)
  drainer : drainer;
}

(* ---------------------------------------------------------------- *)
(* Per-domain accounting: [Domain_acct]'s series in each shard
   engine's registry, written only on the pinned path                 *)

(* Add a (non-negative) µs duration to one of [shard]'s counters. *)
let add_us shard c us =
  if us > 0.0 then
    Metrics.incr ~by:(int_of_float us) (Engine.metrics shard.engine)
      (Domain_acct.counter_key c)

(* Raise one of [shard]'s gauges to [v] if larger. Each has a single
   writer (the shard's pinned domain), so read-then-set cannot lose a
   larger concurrent value. *)
let raise_gauge shard g v =
  let m = Engine.metrics shard.engine and key = Domain_acct.gauge_key g in
  match Metrics.gauge m key with
  | Some cur when cur >= v -> ()
  | Some _ | None -> Metrics.set_gauge m key v

let group_of_engines engines =
  let members =
    Array.mapi
      (fun position engine ->
        {
          position;
          engine;
          inbox = Mpsc.create ();
          pre_seq = Hashtbl.create 16;
          pre_rejected = [];
          store = None;
        })
      engines
  in
  {
    shards = Array.length engines;
    members;
    seq = Atomic.make 0;
    drain_lock = Mutex.create ();
    drainer =
      (if Array.length engines = 1 then Fanout (Domain_pool.create ())
       else
         Pinned
           (Array.map
              (fun s ->
                Domain_acct.declare (Engine.metrics s.engine);
                (* The prewarm keeps the one-time trace buffer and
                   flight-ring setup out of the first shard.drain span,
                   where [trace summarize --scaling] would count it as
                   unattributed wall. *)
                Domain_pool.Worker.create ~on_idle:(add_us s Domain_acct.Idle)
                  ~init:Trace.prewarm ())
              members));
  }

let create ?algorithm ?seed ?(shards = 1) wf =
  if shards < 1 then invalid_arg "Serving.create: shards must be >= 1";
  (* Freeze once: re-freezing a frozen workflow shares its snapshot and
     metadata, so every shard engine's base is this one base. *)
  let frozen = Workflow.freeze wf in
  group_of_engines
    (Array.init shards (fun _ -> Engine.create ?algorithm ?seed frozen))

let shards t = t.shards
let engines t = Array.map (fun s -> s.engine) t.members
let route t user = Router.shard_of ~shards:t.shards user
let algorithm t = Engine.algorithm t.members.(0).engine
let seed t = Engine.seed t.members.(0).engine
let base t = Engine.base t.members.(0).engine

(* One shard serves on the caller: submits go straight into its engine
   (journaled there, write-ahead), and drains run on the calling domain
   with the engine's per-user fan-out over the group's pool. No pinned
   shard domain exists. The shard count alone picks the path (in
   [group_of_engines]). *)
let direct t = match t.drainer with Fanout _ -> true | Pinned _ -> false

(* ---------------------------------------------------------------- *)
(* Submit: straight into the engine, or the lock-free inbox path      *)

let submit t ~user request =
  if direct t then Engine.submit t.members.(0).engine ~user request
  else begin
    let s = t.members.(route t user) in
    let seq = Atomic.fetch_and_add t.seq 1 in
    let at_ms = Timing.now_ms () in
    Mpsc.push s.inbox { seq; i_user = user; i_request = request; at_ms }
  end

(* ---------------------------------------------------------------- *)
(* Per-shard drain (runs on the shard's pinned domain)               *)

(* A shard's drain or one of its phases: a trace span, a flight entry
   and the shard's accounting counter [c], all from one pair of clock
   reads, so a trace, a post-mortem flight dump and the exposition tell
   one story. *)
let phase ?parent shard c name f =
  Trace.timed ?parent ~shard:shard.position name (add_us shard c) f

(* The shard's whole inbox in the global submission order (CAS order
   under racing producers can differ from seq order). *)
let take_inbox shard =
  List.sort
    (fun (a : item) (b : item) -> compare a.seq b.seq)
    (Mpsc.take_all shard.inbox)

(* Feed [items] to the engine — journal + enqueue, no execute —
   recording each user's first seq in [first]. Journal hooks fire
   inside [Engine.submit], so the WAL records land in seq order; they
   reach the kernel as one group commit (one write when the ingest
   ends, one fsync-policy check) rather than one flush each. A submit
   the journal rejects (e.g. an oversized record) becomes an error
   reply, consed onto [rejected] (newest first), instead of killing
   the shard domain. *)
let ingest shard items ~first ~rejected =
  let feed () =
    List.fold_left
      (fun rejected it ->
        if not (Hashtbl.mem first it.i_user) then
          Hashtbl.add first it.i_user it.seq;
        match
          Engine.submit ~submitted_ms:it.at_ms shard.engine ~user:it.i_user
            it.i_request
        with
        | () -> rejected
        | exception exn ->
            let msg =
              match exn with
              | Invalid_argument m | Failure m -> m
              | e -> Printexc.to_string e
            in
            Metrics.incr (Engine.metrics shard.engine) "shard.submit.rejected";
            {
              Engine.user = it.i_user;
              request = it.i_request;
              result = Error msg;
              time_ms = 0.0;
            }
            :: rejected)
      rejected items
  in
  match shard.store with
  | Some store when items <> [] -> Store.group_commit store feed
  | Some _ | None -> feed ()

(* Take the shard's inbox, ingest it and drain.

   The body is tiled by four phases — sort, journal (ingest), execute,
   gather — so `trace summarize --scaling` can attribute essentially
   all of a shard's drain wall time (the residue between [shard.drain]
   and the four children is span bookkeeping alone). *)
let drain_shard shard ~parent =
  phase ~parent shard Domain_acct.Busy "shard.drain" (fun () ->
      let m = Engine.metrics shard.engine in
      Metrics.incr m (Domain_acct.counter_key Drains);
      let items =
        phase shard Sort "shard.sort" (fun () ->
            let items = take_inbox shard in
            let n = List.length items in
            (* The inbox only grows between drains (a drain takes it
               whole), so the batch size *is* the inter-drain depth
               peak. *)
            Metrics.set_gauge m
              (Domain_acct.gauge_key Inbox_depth_last)
              (float_of_int n);
            raise_gauge shard Inbox_depth_peak (float_of_int n);
            Metrics.incr ~by:n m (Domain_acct.counter_key Items);
            Metrics.record_ms m "queue_depth" (float_of_int n);
            items)
      in
      let first : (string, int) Hashtbl.t = Hashtbl.create 16 in
      (* Items a migration already ingested keep their original seqs
         (and their rejection replies) via the carry-over fields. Both
         are written under [drain_lock] and read here on the pinned
         domain — the worker's mailbox handoff orders them. *)
      Hashtbl.iter (Hashtbl.replace first) shard.pre_seq;
      Hashtbl.reset shard.pre_seq;
      let carried = shard.pre_rejected in
      shard.pre_rejected <- [];
      let rejected =
        phase shard Journal "shard.journal" (fun () ->
            (* Write-behind journal lag: how far ingest (where the WAL
               record is written) ran behind the submit stream. ms →
               µs. *)
            let ingest_ms = Timing.now_ms () in
            let lag = ref 0.0 and lag_peak = ref 0.0 in
            List.iter
              (fun it ->
                let l = Float.max 0.0 (ingest_ms -. it.at_ms) in
                lag := !lag +. l;
                if l > !lag_peak then lag_peak := l)
              items;
            add_us shard Journal_lag (!lag *. 1000.0);
            raise_gauge shard Journal_lag_peak
              (Float.trunc (!lag_peak *. 1000.0));
            ingest shard items ~first ~rejected:carried)
      in
      let replies =
        phase shard Execute "shard.execute" (fun () ->
            Engine.drain shard.engine)
      in
      phase shard Gather "shard.gather" (fun () ->
          (* Engine replies come back grouped by user: cut them into
             per-user runs, then append any rejected submits to their
             user's run (or open one) so no request goes unanswered. *)
          let runs =
            List.fold_left
              (fun acc (r : Engine.reply) ->
                match acc with
                | (u, rs) :: rest when u = r.Engine.user -> (u, r :: rs) :: rest
                | _ -> (r.Engine.user, [ r ]) :: acc)
              [] replies
            |> List.rev_map (fun (u, rs) -> (u, List.rev rs))
          in
          let runs =
            List.fold_left
              (fun runs (rej : Engine.reply) ->
                let rec add = function
                  | [] -> [ (rej.Engine.user, [ rej ]) ]
                  | (u, rs) :: rest when u = rej.Engine.user ->
                      (u, rs @ [ rej ]) :: rest
                  | g :: rest -> g :: add rest
                in
                add runs)
              runs (List.rev rejected)
          in
          List.map
            (fun (u, rs) ->
              {
                g_seq =
                  (match Hashtbl.find_opt first u with
                  | Some s -> s
                  | None -> max_int);
                g_replies = rs;
              })
            runs))

(* ---------------------------------------------------------------- *)
(* Group drain: scatter to the workers, gather by sequence number      *)

let merge gathers =
  List.concat_map
    (fun g -> g.g_replies)
    (List.sort (fun a b -> compare a.g_seq b.g_seq) gathers)

let drain t =
  Mutex.protect t.drain_lock (fun () ->
      match t.drainer with
      | Fanout pool -> Engine.drain_fanout pool t.members.(0).engine
      | Pinned workers ->
          Trace.timed "group.drain"
            ~args:[ ("shards", string_of_int t.shards) ]
            ignore
            (fun () ->
              let parent = Trace.current_span () in
              (* Each shard's drain runs on its own pinned domain,
                 spawned by the shard's first drain and kept until
                 [close], with no work-stealing in between. *)
              (* Spawn first: a failed spawn leaves no job
                 outstanding. *)
              Array.iter Domain_pool.Worker.start workers;
              Array.iteri
                (fun i w ->
                  Domain_pool.Worker.send w (fun () ->
                      let g = drain_shard t.members.(i) ~parent in
                      (g, Unix.gettimeofday () *. 1e6)))
                workers;
              (* Every shard finishes its drain before the first
                 failure (lowest shard) is raised. *)
              let results =
                Array.map Domain_pool.Worker.await workers
                |> Array.map (function Ok r -> r | Error e -> raise e)
              in
              (* Each shard's barrier wait: the gap between its own
                 finish and the slowest shard's. Charged here (under
                 the drain lock — a single writer), not on the
                 domains, which cannot know who finished last. *)
              let slowest =
                Array.fold_left
                  (fun acc (_, fin) -> Float.max acc fin)
                  neg_infinity results
              in
              Array.iteri
                (fun i (_, fin) ->
                  add_us t.members.(i) Domain_acct.Barrier (slowest -. fin))
                results;
              let gathers = Array.to_list results |> List.concat_map fst in
              Trace.timed "group.merge" ignore (fun () -> merge gathers)))

(* ---------------------------------------------------------------- *)
(* Epoch migration                                                   *)

let epoch t = Engine.epoch t.members.(0).engine

(* Take a shard's whole inbox and feed it to the engine queue —
   journal + enqueue, no execute. Called under [drain_lock] before an
   epoch install so (a) the WAL orders every outstanding submit before
   the [Epoch_installed] record and (b) the queued pairs, which carry
   old-base ids, are inside the engine when [Engine.migrate] remaps
   them. Seqs and rejections carry over to the next drain. *)
let ingest_inbox shard =
  shard.pre_rejected <-
    ingest shard (take_inbox shard) ~first:shard.pre_seq
      ~rejected:shard.pre_rejected

let migrate t wf =
  Mutex.protect t.drain_lock (fun () ->
      let next = epoch t + 1 in
      Trace.timed "group.migrate" ignore (fun () ->
          Array.iter ingest_inbox t.members;
          (* Every shard installs the same pinned epoch; each engine
             normalizes [wf] through the identical serialized text, so
             the shards' new bases are bit-identical views of the same
             structure (ids assigned by the same deterministic parse). *)
          let total =
            Array.fold_left
              (fun acc s ->
                let m = Engine.migrate ~epoch:next s.engine wf in
                match acc with
                | None -> Some m
                | Some (a : Engine.migration) ->
                    Some
                      {
                        a with
                        Engine.m_recomputed = a.m_recomputed + m.m_recomputed;
                        m_dropped_pairs = a.m_dropped_pairs + m.m_dropped_pairs;
                      })
              None t.members
          in
          Option.get total))

let session t user = Engine.session t.members.(route t user).engine user
let forget t user = Engine.forget t.members.(route t user).engine user

let set_journal t cb =
  Array.iter (fun s -> Engine.set_journal s.engine cb) t.members

let sessions t =
  Array.to_list (engines t)
  |> List.concat_map Engine.sessions
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* ---------------------------------------------------------------- *)
(* Session tiering: the group cap is split evenly across shards (the
   splitmix router spreads users near-uniformly, so equal slices track
   equal populations). The per-session byte estimate is measured once
   on shard 0 and shared, keeping every shard's resident budget — and
   thus the eviction pattern — identical across layouts. *)

let set_mem_cap ?session_bytes t cap =
  match cap with
  | None -> Array.iter (fun s -> Engine.set_mem_cap s.engine None) t.members
  | Some cap_bytes ->
      let per = max 1 (cap_bytes / t.shards) in
      let first = t.members.(0).engine in
      Engine.set_mem_cap ?session_bytes first (Some per);
      let session_bytes =
        match session_bytes with
        | Some _ as sb -> sb
        | None ->
            Option.map
              (fun (st : Tier.stats) -> st.Tier.session_bytes)
              (Engine.tier_stats first)
      in
      Array.iteri
        (fun i s ->
          if i > 0 then Engine.set_mem_cap ?session_bytes s.engine (Some per))
        t.members

let tier_stats t =
  let per_shard =
    Array.to_list t.members
    |> List.filter_map (fun s -> Engine.tier_stats s.engine)
  in
  match per_shard with
  | [] -> None
  | hd :: tl ->
      (* Sums across shards; [resident_peak]/[resident_bytes_peak] are
         sums of per-shard peaks (an upper bound on the true group-wide
         instant peak — shards peak independently). *)
      Some
        (List.fold_left
           (fun (a : Tier.stats) (b : Tier.stats) ->
             {
               Tier.resident = a.resident + b.resident;
               parked = a.parked + b.parked;
               resident_peak = a.resident_peak + b.resident_peak;
               resident_bytes = a.resident_bytes + b.resident_bytes;
               resident_bytes_peak =
                 a.resident_bytes_peak + b.resident_bytes_peak;
               cap_bytes = a.cap_bytes + b.cap_bytes;
               session_bytes = max a.session_bytes b.session_bytes;
               evictions = a.evictions + b.evictions;
               hydrations = a.hydrations + b.hydrations;
             })
           hd tl)

let session_states t =
  Array.to_list (engines t)
  |> List.concat_map Engine.session_states
  |> List.sort compare

(* ---------------------------------------------------------------- *)
(* Merged observability                                              *)

let metrics t =
  let merged = Metrics.create () in
  Array.iter
    (fun s -> Metrics.merge_into ~into:merged (Engine.metrics s.engine))
    t.members;
  merged

let domain_stats t =
  if direct t then []
  else
    Array.to_list
      (Array.mapi
         (fun i s -> Domain_acct.stats ~shard:i (Engine.metrics s.engine))
         t.members)

let metrics_json t =
  let merged = metrics t in
  let n v = Json.Number (float_of_int v) in
  (* Lifetime totals from the registries, not sums over the sessions
     held: a parked session carries no stats and a hydrated one starts
     from zero. *)
  let sessions_json =
    Json.Object
      [
        ( "count",
          n
            (Array.fold_left
               (fun acc s -> acc + Engine.session_count s.engine)
               0 t.members) );
        ( "solver_runs",
          n (Metrics.counter merged ("solve." ^ Algorithms.to_string (algorithm t)))
        );
        ("free_hits", n (Metrics.counter merged "session.free_hits"));
        ("full_resolves", n (Metrics.counter merged "session.full_resolves"));
      ]
  in
  let tier_json =
    match tier_stats t with
    | None -> []
    | Some (st : Tier.stats) ->
        let n k v = (k, n v) in
        [
          ( "tier",
            Json.Object
              [
                n "cap_bytes" st.cap_bytes;
                n "session_bytes" st.session_bytes;
                n "resident" st.resident;
                n "parked" st.parked;
                n "sessions_resident_peak" st.resident_peak;
                n "resident_bytes" st.resident_bytes;
                n "resident_bytes_peak" st.resident_bytes_peak;
                n "evictions" st.evictions;
                n "hydrations" st.hydrations;
              ] );
        ]
  in
  (* Solve memo traffic, summed over the shards' per-epoch memos. *)
  let memo_json =
    let hits = Metrics.counter merged "solve.memo.hit" in
    let misses = Metrics.counter merged "solve.memo.miss" in
    Json.Object
      [
        ("hits", n hits);
        ("misses", n misses);
        ( "hit_frac",
          Json.Number
            (if hits + misses = 0 then 0.0
             else float_of_int hits /. float_of_int (hits + misses)) );
      ]
  in
  let extra =
    [
      ("sessions", sessions_json);
      ("solve_memo", memo_json);
      ("shards", Json.Number (float_of_int t.shards));
      ( "domains",
        Json.Array (List.map Domain_acct.stats_json (domain_stats t)) );
    ]
    @ tier_json
  in
  match Metrics.to_json merged with
  | Json.Object fields -> Json.Object (fields @ extra)
  | other -> other

let prometheus t =
  Metrics.prometheus_sets
    (List.mapi
       (fun i s -> ([ ("shard", string_of_int i) ], Engine.metrics s.engine))
       (Array.to_list t.members))

(* ---------------------------------------------------------------- *)
(* Durability                                                        *)

let shard_dir root i = Filename.concat root (Printf.sprintf "shard-%d" i)
let group_manifest root = Filename.concat root "group.json"

let write_group_manifest root ~shards =
  let json =
    Json.Object
      [
        ("version", Json.Number 1.0);
        ("shards", Json.Number (float_of_int shards));
      ]
  in
  Store.write_atomic (group_manifest root) (Json.to_string json ^ "\n")

let stores t =
  Array.of_list (List.filter_map (fun s -> s.store) (Array.to_list t.members))

let journal ?fsync ~dir t =
  if t.members.(0).store <> None then
    invalid_arg "Serving.journal: already journaled";
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  write_group_manifest dir ~shards:t.shards;
  Array.iteri
    (fun i s ->
      s.store <-
        Some (Store.create_for ?fsync ~dir:(shard_dir dir i) s.engine))
    t.members

let snapshot t =
  Array.iter
    (fun s -> Option.iter (fun st -> Store.write_snapshot st s.engine) s.store)
    t.members

let compact t =
  Array.iter
    (fun s -> Option.iter (fun st -> Store.compact st s.engine) s.store)
    t.members

let close t =
  Mutex.protect t.drain_lock (fun () ->
      (match t.drainer with
      | Fanout pool -> Domain_pool.close pool
      | Pinned workers -> Array.iter Domain_pool.Worker.stop workers);
      Array.iter
        (fun s ->
          Option.iter Store.close s.store;
          s.store <- None)
        t.members)

(* ---------------------------------------------------------------- *)
(* Recovering a root                                                 *)

(* The ledger directories under [root], index = shard id, and the one
   place a root's layout is decided: the root itself when it holds no
   group.json (one engine's ledger, served as a one-shard group),
   otherwise [shard-<i>] for each shard group.json pins. *)
let ledger_dirs root =
  let path = group_manifest root in
  if not (Sys.file_exists path) then Ok [| root |]
  else
    let ( let* ) = Result.bind in
    let* text =
      try Ok (In_channel.with_open_bin path In_channel.input_all)
      with Sys_error e -> Error e
    in
    let* json =
      Result.map_error (fun e -> "group.json: " ^ e) (Json.parse text)
    in
    match Option.bind (Json.member "shards" json) Json.to_float with
    | Some n when Float.is_integer n && n >= 1.0 ->
        Ok (Array.init (int_of_float n) (shard_dir root))
    | Some _ | None -> Error "group.json: missing or malformed \"shards\""

(* Run [task] on every ledger directory under [root], one per shard,
   on a pool that lives for this call only: recovery happens before any
   serving value (and its pool) exists, and parked helpers left behind
   would join every later minor GC. On a failure, [release] gets every
   result that succeeded, and the lowest failing shard's error returns,
   tagged with the shard. *)
let per_ledger ?(release = ignore) root task =
  Result.bind (ledger_dirs root) (fun dirs ->
      let pool = Domain_pool.create () in
      let results =
        Fun.protect
          ~finally:(fun () -> Domain_pool.close pool)
          (fun () -> Domain_pool.run pool (Array.map (fun d () -> task d) dirs))
      in
      match
        Array.find_mapi
          (fun i -> function
            | Error e -> Some (Printf.sprintf "shard-%d: %s" i e)
            | Ok _ -> None)
          results
      with
      | Some e ->
          Array.iter (function Ok r -> release r | Error _ -> ()) results;
          Error e
      | None ->
          Ok (Array.map (function Ok r -> r | Error _ -> assert false) results))

type 'a recovery = {
  serving : 'a;
  shard_recoveries : Store.recovery array;
  replayed : int;
  damaged : int list;
}

let summarize serving shard_recoveries =
  let replayed =
    Array.fold_left (fun acc r -> acc + r.Store.replayed) 0 shard_recoveries
  in
  let damaged =
    List.filter
      (fun i ->
        match shard_recoveries.(i).Store.tail with
        | Wal.Clean -> false
        | Wal.Torn _ | Wal.Corrupt _ -> true)
      (List.init (Array.length shard_recoveries) Fun.id)
  in
  { serving; shard_recoveries; replayed; damaged }

let verify root = per_ledger root Store.verify
let recover root = Result.map (summarize ()) (per_ledger root Store.recover)

let resume ?fsync root =
  Result.map
    (fun pairs ->
      let serving =
        group_of_engines (Array.map (fun (_, r) -> r.Store.engine) pairs)
      in
      Array.iteri
        (fun i (store, _) -> serving.members.(i).store <- Some store)
        pairs;
      summarize serving (Array.map snd pairs))
    (per_ledger
       ~release:(fun (store, _) -> Store.close store)
       root
       (Store.resume ?fsync))
