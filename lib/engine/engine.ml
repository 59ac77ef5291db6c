module Algorithms = Cdw_core.Algorithms
module Constraint_set = Cdw_core.Constraint_set
module Evolution = Cdw_core.Evolution
module Serialize = Cdw_core.Serialize
module Timing = Cdw_util.Timing
module Trace = Cdw_obs.Trace

type request =
  | Add of (int * int) list
  | Withdraw of (int * int) list
  | Resolve

type reply = {
  user : string;
  request : request;
  result : (unit, string) result;
  time_ms : float;
}

type event =
  | Submitted of { user : string; request : request }
  | Session_closed of { user : string }
  | Drained of { seq : int }
  | Drain_settled
  | Epoch_installed of { epoch : int; workflow : string }

type migration = {
  m_epoch : int;
  m_recomputed : int;
  m_dropped_pairs : int;
}

type t = {
  index : Shared_index.t;
  algorithm : Algorithms.name;
  seed : int;
  sessions : (string, Session.t) Hashtbl.t;
  mutable queue : (string * request * float) list;
      (* reversed; the float is the submit timestamp (ms), from which
         the drain derives per-request queue-wait latency *)
  mutable journal : (event -> unit) option;
  mutable drains : int;  (* sequence number of the next drain *)
  mutable tier : Tier.t option;
      (* session tiering under a memory cap; None = everything resident *)
  lock : Mutex.t;  (* guards [sessions], [queue], [journal], [drains], [tier] *)
}

let create ?(algorithm = Algorithms.Remove_min_mc) ?(seed = 0x5EED) wf =
  let index = Shared_index.create wf in
  (* The epoch gauge exists from birth: a scrape of a never-migrated
     engine reports epoch 0 rather than an absent series. *)
  Metrics.set_gauge (Shared_index.metrics index)
    "epoch"
    (float_of_int (Shared_index.epoch index));
  {
    index;
    algorithm;
    seed;
    sessions = Hashtbl.create 64;
    queue = [];
    journal = None;
    drains = 0;
    tier = None;
    lock = Mutex.create ();
  }

let index t = t.index
let metrics t = Shared_index.metrics t.index
let base t = Shared_index.base t.index
let epoch t = Shared_index.epoch t.index
let algorithm t = t.algorithm
let seed t = t.seed

let emit t event = match t.journal with Some j -> j event | None -> ()

let with_lock t f = Mutex.protect t.lock f

let set_journal t journal = with_lock t (fun () -> t.journal <- journal)

let session_seed t user = t.seed lxor Hashtbl.hash user

(* A session of [user] on the current base, registered nowhere. *)
let fresh t user =
  Session.create ~index:t.index ~algorithm:t.algorithm
    ~rng_seed:(session_seed t user) user

(* Under the lock: revive a parked session through the zero-solver-run
   restore path, rewinding its rng to the captured state so randomized
   solves continue the exact stream an unevicted session would have.
   Hydration emits no journal event — eviction is a cache decision the
   ledger never sees (the state it re-installs is already durable). *)
let hydrate_locked t user (p : Tier.parked) =
  let s = fresh t user in
  (match Session.restore s ~constraints:p.Tier.p_pairs ~removed_ids:p.Tier.p_cuts
   with
  | Ok () -> ()
  | Error e -> failwith (Printf.sprintf "Engine: hydrating %S: %s" user e));
  Session.set_rng_state s p.Tier.p_rng;
  Hashtbl.add t.sessions user s;
  s

(* Under the lock: the session the engine holds for [user] — resident,
   or hydrated from the cold tier — if any. *)
let held_locked t user =
  match Hashtbl.find_opt t.sessions user with
  | Some s ->
      (match t.tier with Some tier -> Tier.touch tier user | None -> ());
      Some s
  | None -> (
      match t.tier with
      | None -> None
      | Some tier -> (
          match Tier.take_parked tier user with
          | None -> None
          | Some p ->
              let s =
                Trace.span "tier.hydrate"
                  ~args:[ ("user", user) ]
                  (fun () -> hydrate_locked t user p)
              in
              Metrics.incr (metrics t) "tier.hydrations";
              Tier.touch tier user;
              Some s))

(* Under the lock: get-or-create, registering a new user. Only a drain
   and the ledger's restore paths register users, so every session the
   pool holds was named by a journaled request or by recovered state:
   recovery reproduces the pool without a record of its own. *)
let session_locked t user =
  match held_locked t user with
  | Some s -> s
  | None ->
      let s = fresh t user in
      Hashtbl.add t.sessions user s;
      (match t.tier with Some tier -> Tier.touch tier user | None -> ());
      Metrics.incr (metrics t) "engine.sessions.created";
      s

let session t user =
  with_lock t (fun () ->
      match held_locked t user with Some s -> s | None -> fresh t user)

let open_session t user = with_lock t (fun () -> ignore (session_locked t user))

let restore_session t user ~constraints ~removed_ids =
  (* One lock section end to end: the get-or-create and the state
     install are atomic, so a submit (or drain) racing a restore can
     never run against a half-installed session — the hydration path
     for a just-evicted user with queued work depends on this. *)
  with_lock t (fun () ->
      let s = session_locked t user in
      Session.restore s ~constraints ~removed_ids)

let forget t user =
  with_lock t (fun () ->
      let resident = Hashtbl.mem t.sessions user in
      let parked =
        match t.tier with
        | Some tier -> Tier.peek_parked tier user <> None
        | None -> false
      in
      if resident then Hashtbl.remove t.sessions user;
      (* erasure reaches the cold tier: LRU node and parked state both *)
      (match t.tier with Some tier -> Tier.remove tier user | None -> ());
      if resident || parked then begin
        Metrics.incr (metrics t) "engine.sessions.forgotten";
        emit t (Session_closed { user })
      end)

let sessions t =
  with_lock t (fun () ->
      Hashtbl.fold (fun user s acc -> (user, s) :: acc) t.sessions [])
  |> List.sort compare

let session_count t =
  with_lock t (fun () ->
      Hashtbl.length t.sessions
      + match t.tier with Some tier -> (Tier.stats tier).Tier.parked | None -> 0)

(* ---------------------------------------------------------------- *)
(* Session tiering                                                    *)

(* Marginal resident bytes of one session over the shared index:
   reachable words of (index, k probe sessions) minus the index alone,
   divided by k — shared structure is counted once, so each session is
   charged only its private state (the Workbench measurement, applied
   to full sessions). Probes are never registered and die with this
   frame. *)
let measured_session_bytes t =
  let word = Sys.word_size / 8 in
  let k = 8 in
  let probe i = fresh t (Printf.sprintf "\000tier-probe-%d" i) in
  let probes = Array.init k probe in
  let with_probes = Obj.reachable_words (Obj.repr (t.index, probes)) in
  let index_only = Obj.reachable_words (Obj.repr t.index) in
  let marginal = (with_probes - index_only) * word / k in
  if marginal > 0 then marginal else 1024

(* Under the lock: evict coldest-first until the resident set fits the
   cap. Users with queued requests are pinned — their queued work must
   land on the session state the submit observed, so they stay resident
   until their queue drains (the drain boundary that follows re-runs
   this sweep). Eviction emits no journal event: the parked record is
   the session's recoverable state, already durable when journaled. *)
let evict_over_cap_locked t =
  match t.tier with
  | None -> ()
  | Some tier when not (Tier.over_cap tier) -> ()
  | Some tier ->
      let pinned = Hashtbl.create 16 in
      List.iter (fun (u, _, _) -> Hashtbl.replace pinned u ()) t.queue;
      let is_pinned u = Hashtbl.mem pinned u in
      let evicted = ref 0 in
      Trace.span "tier.evict" (fun () ->
          let rec sweep () =
            if Tier.over_cap tier then
              match Tier.pop_coldest tier ~pinned:is_pinned with
              | None -> ()
              | Some user ->
                  (match Hashtbl.find_opt t.sessions user with
                  | None -> ()
                  | Some s ->
                      Tier.park tier user
                        {
                          Tier.p_pairs =
                            Constraint_set.pairs (Session.constraints s);
                          p_cuts = Session.cut_ids s;
                          p_rng = Session.rng_state s;
                        };
                      Hashtbl.remove t.sessions user;
                      incr evicted);
                  sweep ()
          in
          sweep ());
      if !evicted > 0 then
        Metrics.incr ~by:!evicted (metrics t) "tier.evictions"

let set_mem_cap ?session_bytes t cap =
  with_lock t (fun () ->
      match cap with
      | None -> (
          match t.tier with
          | None -> ()
          | Some tier ->
              (* Tiering off: hydrate everything parked back to a live
                 session so no state is stranded in a table nothing
                 reads any more. *)
              let all =
                Tier.fold_parked tier ~init:[] ~f:(fun acc u p ->
                    (u, p) :: acc)
              in
              List.iter (fun (user, p) -> ignore (hydrate_locked t user p)) all;
              if all <> [] then
                Metrics.incr ~by:(List.length all) (metrics t)
                  "tier.hydrations";
              t.tier <- None)
      | Some cap_bytes ->
          (match t.tier with
          | Some tier -> Tier.set_cap_bytes tier cap_bytes
          | None ->
              let session_bytes =
                match session_bytes with
                | Some b when b > 0 -> b
                | Some _ ->
                    invalid_arg "Engine.set_mem_cap: session_bytes must be > 0"
                | None -> measured_session_bytes t
              in
              let tier = Tier.create ~cap_bytes ~session_bytes in
              (* Seed the LRU with every live session; sorted order
                 makes the initial coldness ranking deterministic. *)
              Hashtbl.fold (fun u _ acc -> u :: acc) t.sessions []
              |> List.sort compare
              |> List.iter (fun u -> Tier.touch tier u);
              t.tier <- Some tier);
          evict_over_cap_locked t)

let tier_stats t = with_lock t (fun () -> Option.map Tier.stats t.tier)

let session_states t =
  with_lock t (fun () ->
      let live =
        Hashtbl.fold
          (fun user s acc ->
            ( user,
              Constraint_set.pairs (Session.constraints s),
              Session.cut_ids s )
            :: acc)
          t.sessions []
      in
      match t.tier with
      | None -> live
      | Some tier ->
          Tier.fold_parked tier ~init:live ~f:(fun acc user p ->
              (user, p.Tier.p_pairs, p.Tier.p_cuts) :: acc))
  |> List.sort compare

(* ---------------------------------------------------------------- *)
(* Replaying a replaced cut (older builds' anytime refiner)           *)

(* Install [cuts] as [user]'s cut with the rng stream carried over. A
   resident session is rebuilt on the new cut; a parked record is
   re-parked with it, never hydrated — the user stays cold, exactly as
   the live install left it. *)
let apply_refined t user ~cuts =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.sessions user with
      | Some s -> (
          let pairs = Constraint_set.pairs (Session.constraints s) in
          let rng = Session.rng_state s in
          let s' = fresh t user in
          match Session.restore s' ~constraints:pairs ~removed_ids:cuts with
          | Ok () ->
              Session.set_rng_state s' rng;
              Hashtbl.replace t.sessions user s';
              Ok ()
          | Error _ as e -> e)
      | None -> (
          let unknown () =
            Error (Printf.sprintf "Engine: refining unknown session %S" user)
          in
          match t.tier with
          | None -> unknown ()
          | Some tier -> (
              match Tier.peek_parked tier user with
              | Some p ->
                  Tier.repark tier user { p with Tier.p_cuts = cuts };
                  Ok ()
              | None -> unknown ())))

(* ---------------------------------------------------------------- *)
(* Epoch migration                                                    *)

(* Install a new base workflow as the next epoch and migrate every
   session — warm, parked, and queued — onto it, at a drain boundary
   (the caller guarantees no drain is in flight; everything else runs
   under the engine lock, so submitters simply block for the duration).

   Every user is re-solved: its constraint pairs are remapped by vertex
   name and solved as one coalesced batch on a freshly seeded session —
   bit-identical to what a fresh serving of this user on the new base
   produces. The new epoch's solve memo makes that cheap: users sharing
   a constraint list cost one solver run between them. *)
let migrate ?epoch:e t wf =
  let next = match e with Some e -> e | None -> Shared_index.epoch t.index + 1 in
  let m = metrics t in
  Trace.span "epoch.migrate"
    ~args:[ ("epoch", string_of_int next) ]
    (fun () ->
      Metrics.time m "epoch.migrate" (fun () ->
          with_lock t (fun () ->
              let old_base = Shared_index.base t.index in
              (* Normalized through the text form: the journaled
                 [Epoch_installed] record carries exactly this text and
                 the live install freezes its parse, so crash replay
                 re-freezes a bit-identical base — same vertex and edge
                 id assignment, hence identical re-solved cut ids. The
                 emit comes first, like [Submitted]: if the journal
                 rejects the record, the engine is untouched. *)
              let text = Serialize.to_string wf in
              let wf', _ = Serialize.parse_exn text in
              emit t (Epoch_installed { epoch = next; workflow = text });
              Shared_index.install ~epoch:next t.index wf';
              let new_base = Shared_index.base t.index in
              let to_new v = Evolution.counterpart ~of_:new_base old_base v in
              let recomputed = ref 0 and dropped = ref 0 in
              (* Remap a constraint set by name; a pair whose endpoint
                 vanished is dropped — an implicit withdrawal. *)
              let remap_pairs pairs =
                let kept =
                  List.filter_map
                    (fun (s, tg) ->
                      match (to_new s, to_new tg) with
                      | Some s', Some tg' -> Some (s', tg')
                      | _ -> None)
                    pairs
                in
                dropped := !dropped + List.length pairs - List.length kept;
                kept
              in
              let recompute user pairs =
                let s = fresh t user in
                (match pairs with
                | [] -> ()
                | ps -> (
                    match Session.add s ps with
                    | Ok () -> ()
                    | Error e ->
                        failwith
                          (Printf.sprintf "Engine.migrate: re-solving %S: %s"
                             user e)));
                Stdlib.incr recomputed;
                s
              in
              (* Warm sessions are rebuilt (a session's solver closure
                 captures the old base). *)
              let warm = Hashtbl.fold (fun u s acc -> (u, s) :: acc) t.sessions [] in
              List.iter
                (fun (user, s) ->
                  let pairs = Constraint_set.pairs (Session.constraints s) in
                  Hashtbl.replace t.sessions user
                    (recompute user (remap_pairs pairs)))
                warm;
              (* Parked cold-tier records are re-solved through a
                 throwaway session and re-parked — they stay cold. *)
              (match t.tier with
              | None -> ()
              | Some tier ->
                  let parked =
                    Tier.fold_parked tier ~init:[] ~f:(fun acc u p ->
                        (u, p) :: acc)
                  in
                  List.iter
                    (fun (user, (p : Tier.parked)) ->
                      let new_pairs = remap_pairs p.Tier.p_pairs in
                      let s = recompute user new_pairs in
                      Tier.repark tier user
                        {
                          Tier.p_pairs = new_pairs;
                          p_cuts = Session.cut_ids s;
                          p_rng = Session.rng_state s;
                        })
                    parked);
              (* Queued submits carry old-base ids; remap them by name.
                 A dangling endpoint maps to an id no base contains, so
                 the request fails validation at its drain with a clean
                 error reply instead of silently acting on the wrong
                 vertex. *)
              let remap_req_pair (s, tg) =
                match (to_new s, to_new tg) with
                | Some s', Some tg' -> (s', tg')
                | _ -> (-1, -1)
              in
              t.queue <-
                List.map
                  (fun (user, request, at) ->
                    let request =
                      match request with
                      | Add ps -> Add (List.map remap_req_pair ps)
                      | Withdraw ps -> Withdraw (List.map remap_req_pair ps)
                      | Resolve -> Resolve
                    in
                    (user, request, at))
                  t.queue;
              Metrics.incr m "epoch.migrations";
              Metrics.incr ~by:!recomputed m "epoch.users_recomputed";
              if !dropped > 0 then
                Metrics.incr ~by:!dropped m "epoch.pairs_dropped";
              Metrics.set_gauge m "epoch" (float_of_int next);
              {
                m_epoch = next;
                m_recomputed = !recomputed;
                m_dropped_pairs = !dropped;
              })))

let submit ?submitted_ms t ~user request =
  (* The journal entry is written under the lock so the WAL order is
     exactly the queue order even with concurrent submitters; [submit]
     only returns once the event is durable per the journal's policy.
     The emit comes BEFORE the queue mutation: if the journal rejects
     the record (e.g. it exceeds the WAL frame bound), the exception
     reaches the submitter with the queue and the log still agreeing —
     the request simply never happened. [submitted_ms] backdates the
     queue timestamp for front ends (the sharded MPSC handoff, the
     network server) whose requests waited upstream of this engine:
     queue_wait then measures the whole path, not the last hop. *)
  let args = if Trace.enabled () then [ ("user", user) ] else [] in
  Trace.span "engine.submit" ~args (fun () ->
      with_lock t (fun () ->
          emit t (Submitted { user; request });
          let at = match submitted_ms with Some ms -> ms | None -> Timing.now_ms () in
          t.queue <- (user, request, at) :: t.queue));
  Metrics.incr (metrics t) "engine.submitted"

let pending t = with_lock t (fun () -> List.length t.queue)

(* Group by user, preserving first-submission order of users and
   submission order of each user's requests. *)
let group_by_user requests =
  let order = ref [] in
  let groups = Hashtbl.create 16 in
  List.iter
    (fun (user, request) ->
      match Hashtbl.find_opt groups user with
      | Some cell -> cell := request :: !cell
      | None ->
          order := user :: !order;
          Hashtbl.add groups user (ref [ request ]))
    requests;
  List.rev_map
    (fun user -> (user, List.rev !(Hashtbl.find groups user)))
    !order

(* Batch coalescing. Inside one drain a user's intermediate states are
   unobservable, so a run of consecutive valid [Add]/[Withdraw]s
   collapses into a single {!Session.update} over its *net* constraint
   change — the core amortization of the batching API: a session that
   submitted k requests pays (at most) one solve, not k. [Resolve] is a
   sequence point (its whole point is forcing a re-optimisation, which
   a net-change of zero would elide). Invalid requests are pre-validated
   out against a simulation of the session's constraint set — they
   answer individually with their error, leave the session untouched
   ([Incremental] semantics) and don't poison the surrounding batch. *)
module Pair_set = Set.Make (struct
  type t = int * int

  let compare = Constraint_set.compare_pair
end)

type segment =
  | Batch of request list * (int * int) list * (int * int) list
      (* ≥1 valid Add/Withdraw requests in submission order, plus their
         net (additions, withdrawals) relative to the session's
         constraint set at batch start *)
  | One of request  (* Resolve, or an invalid request *)

let segments t session reqs =
  let wf = Shared_index.base t.index in
  (* Simulated accepted set: each request validates against the state it
     will actually meet when its segment executes. *)
  let accepted =
    ref (Pair_set.of_list (Constraint_set.pairs (Session.constraints session)))
  in
  let valid = function
    | Add pairs -> List.for_all (Constraint_set.valid_pair wf) pairs
    | Withdraw pairs -> List.for_all (fun p -> Pair_set.mem p !accepted) pairs
    | Resolve -> false
  in
  let close acc start = function
    | [] -> acc
    | run ->
        let net_add = Pair_set.diff !accepted start in
        let net_withdraw = Pair_set.diff start !accepted in
        Batch
          ( List.rev run,
            Pair_set.elements net_add,
            Pair_set.elements net_withdraw )
        :: acc
  in
  let acc, run, start =
    List.fold_left
      (fun (acc, run, start) r ->
        if valid r then begin
          let start = if run = [] then !accepted else start in
          (match r with
          | Add pairs ->
              accepted :=
                List.fold_left (fun s p -> Pair_set.add p s) !accepted pairs
          | Withdraw pairs ->
              accepted :=
                List.fold_left (fun s p -> Pair_set.remove p s) !accepted pairs
          | Resolve -> ());
          (acc, r :: run, start)
        end
        else (One r :: close acc start run, [], !accepted))
      ([], [], !accepted) reqs
  in
  List.rev (close acc start run)

let serve session request =
  match request with
  | Add pairs -> Session.add session pairs
  | Withdraw pairs -> Session.withdraw session pairs
  | Resolve ->
      Session.resolve session;
      Ok ()

(* Serve one segment; every constituent request gets a reply carrying
   the segment's result and service time. *)
let serve_segment m user s segment =
  match segment with
  | One request ->
      let result, time_ms =
        Trace.span "engine.request" (fun () ->
            Timing.time_f (fun () -> serve s request))
      in
      Metrics.record_ms m "request" time_ms;
      [ { user; request; result; time_ms } ]
  | Batch (reqs, add, withdraw) ->
      let result, time_ms =
        let args =
          if Trace.enabled () then
            [ ("requests", string_of_int (List.length reqs)) ]
          else []
        in
        Trace.span "engine.batch" ~args (fun () ->
            Timing.time_f (fun () -> Session.update s ~add ~withdraw))
      in
      Metrics.incr ~by:(List.length reqs - 1) m "engine.coalesced";
      Metrics.record_ms m "request" time_ms;
      List.map (fun request -> { user; request; result; time_ms }) reqs

(* [pool] runs the per-user fan-out; without one every user group is
   solved on the caller. *)
let drain_on ?pool t =
  let m = metrics t in
  Metrics.incr m "engine.drains";
  Metrics.time m "drain" (fun () ->
      Trace.span "engine.drain" (fun () ->
          (* The queue swap and the [Drained] boundary are one lock
             section. Submits journal under the same lock, so the
             records preceding the boundary mark in the WAL are exactly
             the requests this drain consumed — a submitter racing the
             drain lands (in both the queue and the log) after the mark,
             and replay reproduces the original batching. Empty drains
             leave no mark. *)
          let requests =
            Trace.span "drain.dequeue" (fun () ->
                let requests =
                  with_lock t (fun () ->
                      match List.rev t.queue with
                      | [] -> []
                      | q ->
                          t.queue <- [];
                          let seq = t.drains in
                          t.drains <- seq + 1;
                          emit t (Drained { seq });
                          q)
                in
                (* Inside the phase, so the phases tile the drain. *)
                let now = Timing.now_ms () in
                Metrics.record_all_ms m "queue_wait"
                  (List.map (fun (_, _, submitted) -> now -. submitted)
                     requests);
                List.map (fun (user, r, _) -> (user, r)) requests)
          in
          (* The plan only groups the requests and looks up sessions,
             in one lock section on the calling domain: the table is
             then only read inside the tasks. Each task segments its own
             user's requests — [segments] reads only that user's
             session, which no other task touches, and the frozen base —
             so the per-user work runs in the fan-out, not serially on
             the caller. Each task opens its own span, explicitly
             parented to this drain so the fan-out reads as one tree
             across domains. *)
          let drain_sid = Trace.current_span () in
          let tasks =
            Trace.span "drain.plan" (fun () ->
                let groups = group_by_user requests in
                with_lock t (fun () ->
                    Array.of_list
                      (List.map
                         (fun (user, reqs) ->
                           let s = session_locked t user in
                           fun () ->
                             let args =
                               if Trace.enabled () then [ ("user", user) ]
                               else []
                             in
                             Trace.span "engine.user_batch" ~parent:drain_sid
                               ~args (fun () ->
                                 List.concat_map (serve_segment m user s)
                                   (segments t s reqs)))
                         groups)))
          in
          Metrics.incr ~by:(Array.length tasks) m "engine.user_batches";
          let domains, run =
            match pool with
            | Some p -> (Domain_pool.domains p, Domain_pool.run p)
            | None -> (1, Array.map (fun f -> f ()))
          in
          let replies =
            Trace.span "drain.execute"
              ~args:[ ("domains", string_of_int domains) ]
              (fun () -> List.concat (Array.to_list (run tasks)))
          in
          (* Settlement fires outside the lock, once the whole batch is
             applied: the one point where a journal callback may safely
             call back into the engine (e.g. to snapshot session
             state). *)
          Trace.span "drain.settle" (fun () ->
              if requests <> [] then emit t Drain_settled);
          (* Drain boundary = eviction boundary: the batch is applied
             and settled, so every evictable session is quiescent. *)
          with_lock t (fun () -> evict_over_cap_locked t);
          replies))

let drain t = drain_on t
let drain_fanout pool t = drain_on ~pool t
