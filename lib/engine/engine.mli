(** The multi-user consent-serving engine (the §8 "many users, one
    workflow" scenario).

    An engine owns one immutable base workflow wrapped in a
    {!Shared_index}, a pool of per-user {!Session}s that reuse that
    index, and a request queue with batched draining:

    {[
      let engine = Engine.create workflow in
      Engine.submit engine ~user:"alice" (Add [ (s, t) ]);
      Engine.submit engine ~user:"bob" (Add [ (s', t') ]);
      let replies = Engine.drain engine in
      ...
    ]}

    {!drain} groups the pending requests by user — preserving each
    user's submission order — and solves the users' groups on the
    calling domain; {!drain_fanout} solves them in parallel on an
    OCaml 5 domain pool instead (sessions mutate only their own state
    plus the thread-safe shared caches, so user groups are
    embarrassingly parallel). Results are deterministic: a session's
    randomness is seeded from the engine seed and the user id alone, so
    both drains produce identical replies and identical final session
    states (tested in [test_engine.ml]).

    [submit]/[drain] themselves are meant to be driven from one serving
    thread; only the solving fan-out is parallel. Front ends serve
    through [Cdw_shard.Serving], which owns the choice between the two
    drains. *)

type request =
  | Add of (int * int) list  (** accept constraints (user, purpose) *)
  | Withdraw of (int * int) list  (** withdraw accepted constraints *)
  | Resolve  (** batch re-solve from the base (re-optimisation) *)

type reply = {
  user : string;
  request : request;
  result : (unit, string) result;
  time_ms : float;
      (** service time of the solver call that answered this request —
          shared by every request of a coalesced batch (see {!drain}) *)
}

type event =
  | Submitted of { user : string; request : request }
      (** a request is entering the queue (emitted before {!submit}
          returns, and before the queue mutation — see {!submit}) *)
  | Session_closed of { user : string }  (** a session was {!forget}ten *)
  | Drained of { seq : int }
      (** a non-empty {!drain} took its batch off the queue; [seq]
          counts drains from 0. Emitted atomically with the queue swap
          (under the engine lock, like [Submitted]), so in a journal
          the events preceding a [Drained] mark are exactly the
          requests that drain consumed — even with submitters racing
          the drain. *)
  | Drain_settled
      (** the last [Drained] batch has been fully applied to its
          sessions. Emitted outside the engine lock, once per
          [Drained]. *)
  | Epoch_installed of { epoch : int; workflow : string }
      (** a new base was installed by {!migrate}; [workflow] is its
          {!Cdw_core.Serialize} text — replaying the event
          ([migrate ~epoch (parse workflow)]) re-freezes a bit-identical
          base. Emitted under the engine lock, before any state
          changes: a journal that rejects it leaves the engine on the
          old epoch. *)
(** The journaled lifecycle of an engine — what a durable consent
    ledger ({!Cdw_store.Store}) persists to reconstruct the engine
    after a crash. *)

type migration = {
  m_epoch : int;  (** the epoch just installed *)
  m_recomputed : int;
      (** users re-solved from a freshly seeded session — every warm
          and parked session *)
  m_dropped_pairs : int;
      (** constraint pairs dropped because an endpoint vanished from
          the new base (an implicit withdrawal) *)
}
(** What one {!migrate} did — the serving layer's migration report. *)

type t

val create :
  ?algorithm:Cdw_core.Algorithms.name ->
  ?options:Cdw_core.Algorithms.Options.t ->
  ?seed:int ->
  ?max_paths:int ->
  Cdw_core.Workflow.t ->
  t
(** [algorithm] (default [Remove_min_mc]) and [options] (default
    {!Cdw_core.Algorithms.Options.default}) configure every session's
    solver; the options' [rng] and [paths_for] fields are overridden per
    session (see {!Session.create}). [seed] (default [0x5EED]) drives
    the per-session generators. [max_paths] configures the
    {!Shared_index}. The workflow is copied once; the input is never
    modified. *)

val index : t -> Shared_index.t

val metrics : t -> Metrics.t

val base : t -> Cdw_core.Workflow.t
(** The engine's frozen base workflow ({!Shared_index.base}). *)

val epoch : t -> int
(** The current base's epoch: 0 at creation, bumped by each
    {!migrate}. *)

val migrate : ?epoch:int -> t -> Cdw_core.Workflow.t -> migration
(** Install [wf] as the next base epoch and migrate every session —
    warm, parked, and queued — onto it, live. Must be called at a drain
    boundary (no {!drain} in flight); submitters block for the
    duration. The workflow is normalized through its
    {!Cdw_core.Serialize} text form (which the [Epoch_installed] event
    carries), so live migration and crash replay freeze bit-identical
    bases.

    Every user's constraint pairs are remapped by vertex name (a pair
    whose endpoint vanished is dropped) and re-solved as one batch on a
    freshly seeded session, producing exactly the state a fresh serving
    of that constraint set on the new base would; the new epoch's solve
    memo runs the solver once per distinct constraint list. Parked
    sessions are re-solved and re-parked. Queued requests are remapped
    by name; a request pair whose endpoint vanished fails validation at
    its drain with a clean error reply. [epoch] pins the installed epoch number (replay),
    default current + 1.

    Counters: [epoch.migrations], [epoch.users_recomputed],
    [epoch.pairs_dropped]; gauge [epoch]; latency key + trace span
    [epoch.migrate]. *)

val algorithm : t -> Cdw_core.Algorithms.name
(** The solver every session of this engine runs. *)

val seed : t -> int
(** The engine seed the per-session generators derive from. *)

val set_journal : t -> (event -> unit) option -> unit
(** Install (or remove) the journal callback. Every event except
    [Drain_settled] is emitted while the engine lock is held — the
    callback must not call back into the engine for those (appending
    to a log is fine, and the lock totally orders them, so the journal
    sees the exact engine event order); [Drain_settled] is emitted
    outside the lock, so a callback may inspect engine state there
    (e.g. to snapshot it). {!submit} does not return before the
    callback has, which is what makes write-ahead logging possible.
    If the callback raises on a [Submitted] event, the request is
    rejected: the exception propagates out of {!submit} with the queue
    unchanged (engine and journal stay consistent). *)

val session : t -> string -> Session.t
(** The session the engine holds for this user id (hydrating a parked
    one), or, for a user it does not hold, a fresh session on the
    current base that it does not register: reading a user creates no
    state. Only a {!drain} (for a user with a request) and the restore
    calls below add a user to the pool, so every session is named by a
    journaled request or by recovered state, and the journal needs no
    record of its own for a session's creation. *)

val open_session : t -> string -> unit
(** Register an empty session for a user the engine does not hold; a
    no-op for one it does. Replay of the [Session_open] records
    older builds wrote, and of the users of constraint-only (v1)
    snapshots. *)

val restore_session :
  t -> string -> constraints:(int * int) list -> removed_ids:int list ->
  (unit, string) result
(** Get-or-create the user's session and install a previously captured
    (constraints, cut edge ids) state directly, without running the
    solver ({!Session.restore}). Recovery uses this to rebuild
    the pool from snapshot state. *)

val forget : t -> string -> unit
(** Drop the user's session (GDPR erasure / session close): its
    accepted constraints and consented workflow are discarded. A no-op
    for unknown users. Requests of that user still in the queue are
    kept and will re-create a fresh session at the next drain. *)

val sessions : t -> (string * Session.t) list
(** All {e resident} sessions, sorted by user id. Under a memory cap
    ({!set_mem_cap}) evicted sessions are absent here; use
    {!session_states} to enumerate every user's recoverable state
    regardless of tier. *)

val session_count : t -> int
(** The sessions the engine holds in either tier, resident plus parked,
    counted in O(1). *)

val set_mem_cap : ?session_bytes:int -> t -> int option -> unit
(** [set_mem_cap t (Some cap_bytes)] turns on session tiering: the
    engine keeps at most [cap_bytes / session_bytes] sessions resident
    in an LRU and parks the coldest ones as compact
    (constraints, cuts, rng) records, rehydrating on demand through the
    zero-solver-run {!restore_session} path. Eviction happens at drain
    boundaries only, never evicts a user with queued requests, and is
    observably transparent: capped and uncapped runs produce
    bit-identical replies and final states.

    [session_bytes] (first call only) overrides the measured marginal
    resident cost of one session; by default the engine probes it with
    [Obj.reachable_words]. [set_mem_cap t None] turns tiering off and
    rehydrates every parked session. Counters: [tier.evictions],
    [tier.hydrations]; trace spans [tier.evict], [tier.hydrate]. *)

val tier_stats : t -> Tier.stats option
(** Tiering counters (resident/parked/peaks/evictions/hydrations), if
    tiering is on. *)

val session_states : t -> (string * (int * int) list * int list) list
(** Every user's recoverable state — (user, accepted constraint pairs,
    cut edge ids) — across {e both} tiers: resident sessions and parked
    ones. Sorted by user id. This is what ledger snapshots persist; it
    is identical for capped and uncapped runs of the same workload. *)

val session_seed : t -> string -> int
(** Test-only: lets the memo tests replay a session solve outside the engine.

    The rng seed the session of this user id gets — exposed so external
    verification can replay a session's solves exactly. *)

val submit : ?submitted_ms:float -> t -> user:string -> request -> unit
(** Queue one request; with a journal attached, returns only after the
    event is journaled (write-ahead). A journaled engine bounds the
    size of a single request: its encoded record must fit one WAL
    frame ({!Cdw_store.Frame.max_payload}, 16 MiB — hundreds of
    thousands of pairs). An oversized request raises
    [Invalid_argument] {e before} it is enqueued or logged, so engine
    and journal never diverge.

    [submitted_ms] (default: now) backdates the queue timestamp to
    when the request entered an upstream queue — the sharded group's
    MPSC handoff, a network socket — so the [queue_wait] latency
    metric covers the full path the request actually waited. *)

val pending : t -> int

val drain : t -> reply list
(** Serve every pending request on the calling domain and empty the
    queue. Replies come back grouped by user in first-submission order,
    each user's requests in submission order. WAL replay and the shards
    of a multi-shard group drain this way.

    Within one drain, a user's run of consecutive valid [Add]s and
    [Withdraw]s is *coalesced* into a single solver call over its net
    constraint change ({!Session.update}) — the intermediate states are
    unobservable inside the batch, so a session that queued k requests
    pays at most one solve instead of k ([engine.coalesced] counts the
    saved calls). [Resolve] acts as a sequence point (it forces a
    re-optimisation a zero net change would elide); an invalid request —
    an [Add] with a malformed pair, a [Withdraw] of a never-accepted
    pair — is answered individually with its error and leaves both the
    session and the rest of its batch untouched. *)

val drain_fanout : Domain_pool.t -> t -> reply list
(** {!drain}, with the users' groups solved in parallel on the pool's
    parked domains and the caller ({!Domain_pool.run}). Replies and
    final states are identical to {!drain}'s. A one-shard serving group
    drains its engine this way, on a pool it owns. *)

val apply_refined : t -> string -> cuts:int list -> (unit, string) result
(** Install [cuts] (base-graph edge ids) as the user's cut directly —
    resident or parked — preserving the session's rng stream, without
    emitting any event. A parked user is re-parked with the new cut,
    never hydrated. This is WAL replay's handler for the
    [Cut_refined] records that builds with the anytime refiner wrote
    ({!Cdw_store.Record.t}): it reproduces exactly the state mutation
    the live install performed, so old ledgers still recover to the
    state they served. Errors if the user has no session or an id is
    out of range. Idempotent. *)
