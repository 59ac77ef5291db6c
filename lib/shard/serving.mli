(** The serving value: consent serving at every shard count, N
    independent {!Cdw_engine.Engine}s over one shared frozen base,
    observably identical to a single engine, plus the ledger roots it
    journals into and recovers from. Front ends ([cdw serve-bench],
    the network server, the repo benchmark, [cdw store]) are
    written once against this module; [create ~shards] picks the shape.

    The serving scenario (paper §8, "many users, one workflow") is
    embarrassingly parallel {e across users}: sessions never share
    mutable state, so any partition of the user population into
    independently drained engines preserves every reply bit-for-bit —
    provided routing is stable, replies are merged back in submission
    order, and every shard solves with the same seed. A group delivers
    exactly that:

    - {b one base}: the workflow is frozen once ({!Cdw_core.Workflow}
      CSR form) and every shard engine holds that same base — N shards
      cost one base, not N;
    - {b stable routing}: {!Router.shard_of} (SplitMix modulo — see
      {!Router} for why not rendezvous) fixes each user's shard as a
      pure function of the id and the shard count;
    - {b determinism}: every shard engine is created with the {e same}
      seed, and an engine derives per-session randomness from
      (seed, user id) alone — so a user's session solves identically
      whatever the shard count (the differential property
      [test_shard.ml] enforces this).

    The shard count alone picks how the group drains. Both ways run on
    one worker primitive, {!Cdw_engine.Domain_pool.Worker}: a domain
    parked on a condition variable between drains, with a one-slot
    mailbox. They differ only in the scheduling policy over it.

    - {b one shard} serves on the caller. {!submit} goes straight into
      the engine, and {!drain} solves the users of a batch in parallel
      ({!Cdw_engine.Engine.drain_fanout}) on a
      {!Cdw_engine.Domain_pool} the group owns: the caller and parked
      helpers steal user batches from one counter. The helpers are
      spawned by the first drain that fans out and joined by {!close}.
      They are not shard domains, so {!domain_stats} stays empty.
    - {b N shards} serve through a lock-free submit path and a pinned
      drain worker per shard. {!submit} draws a global sequence number
      from one atomic counter and pushes onto the target shard's
      {!Mpsc} inbox, so concurrent submitters never serialize. A drain
      sends one job per shard; each pinned domain takes its whole
      inbox, {e sorts it by sequence number} (the MPSC linearization
      order can differ from seq-draw order under racing producers),
      feeds its engine and drains it on that domain
      ({!Cdw_engine.Engine.drain}) — the parallelism {e is} the shard
      fan-out. Per-user reply groups come back tagged with the user's
      first-submission seq; sorting the groups by that tag rebuilds the
      global first-submission order a single engine's queue would have
      produced. A ["group.drain"] trace span wraps the gather, each
      shard contributes a ["shard.drain"] span parented to it, and each
      shard records its inbox batch size in the ["queue_depth"]
      distribution of its own registry.

    {b Durability} is per shard: {!journal} writes a [group.json]
    manifest pinning the shard count and gives every shard its own
    {!Cdw_store.Store} ledger in [shard-<i>/] under one root (its own
    WAL, snapshots and generation numbers). A ledger written by a lone
    engine ({!Cdw_store.Store.create_for} at the root, no [group.json])
    is a one-shard root whose shard 0 is the root itself: {!verify},
    {!recover} and {!resume} read both layouts, and a resumed plain
    root keeps its store at the root.
    Users are disjoint across shards, so {e any} combination of
    per-shard durable prefixes is a consistent group state — a torn
    WAL tail on one shard shortens that shard's history and that
    shard's only.

    Both shapes meet one durability contract: a request's WAL record
    is written no later than the drain that answers it returns, and
    each shard's WAL is an exact prefix of what that shard served. One
    shard logs inside {!submit} (write-ahead); N shards log when a
    shard's drain {e ingests} the request, on the pinned domain in
    sequence order (the lock-free submit cannot block on an fsync), as
    one group commit ({!Cdw_store.Store.group_commit}): the records one
    ingest writes reach the kernel together when the ingest ends, and
    the fsync policy is checked once there — so when a drain returns,
    its records are in the kernel and under the policy's bound, as on
    one shard. A crash can therefore lose inbox items that were
    submitted but never drained — exactly the items no drain ever
    acknowledged. A request
    the journal {e rejects} (e.g. oversized,
    {!Cdw_engine.Engine.submit}'s [Invalid_argument]) raises out of
    {!submit} on one shard, and is answered with an [Error] reply on N
    shards rather than killing the shard domain.

    {!submit} is safe from any thread/domain; {!drain} may be called
    from one serving thread at a time (an internal lock serializes
    late callers). *)

type t

val create :
  ?algorithm:Cdw_core.Algorithms.name ->
  ?options:Cdw_core.Algorithms.Options.t ->
  ?seed:int ->
  ?max_paths:int ->
  ?shards:int ->
  Cdw_core.Workflow.t ->
  t
(** [create ~shards wf] builds [shards] (default 1) engines over one
    frozen copy of [wf], every engine configured identically (options
    as in {!Cdw_engine.Engine.create}, same [seed] for all — that
    sameness is what makes the group bit-identical to a single
    engine). A multi-shard group spawns its pinned domains at its first
    {!drain}. Raises [Invalid_argument] if
    [shards < 1]. *)

val shards : t -> int

val engines : t -> Cdw_engine.Engine.t array
(** Test-only: the shard differential tests inspect each shard.

    The shard engines, index = shard id. Callers must not submit to or
    drain an engine directly while the group is serving. *)

val route : t -> string -> int
(** Test-only: the shard differential tests inspect each shard.

    The shard serving this user id ({!Router.shard_of}). *)

val algorithm : t -> Cdw_core.Algorithms.name
(** The solver every session runs (identical across shards). *)

val seed : t -> int
(** The engine seed (identical across shards). *)

val base : t -> Cdw_core.Workflow.t
(** The shared frozen base workflow. *)

val epoch : t -> int
(** The shards' common base epoch ({!Cdw_engine.Engine.epoch}). *)

val migrate :
  ?epoch:int -> t -> Cdw_core.Workflow.t -> Cdw_engine.Engine.migration
(** Install a new base epoch on every shard and migrate every session
    onto it, live ({!Cdw_engine.Engine.migrate} semantics: each shard
    re-solves all of its sessions; [m_recomputed] and [m_dropped_pairs]
    are summed across shards; no diff of the two bases is computed).
    Takes the drain lock — callers may race {!drain} and {!submit}
    freely. Each shard's inbox is first ingested (journaled and
    enqueued, without executing), so the per-shard WALs order every
    outstanding submit before their [Epoch_installed] record, and the
    queued old-base pairs are remapped with the rest of the engine
    queue. Seqs of ingested items carry over to the next drain's
    gather, so the merged reply order is still the single-engine order.
    Every shard installs the same epoch number (default: current + 1,
    or [epoch]). *)

val submit : t -> user:string -> Cdw_engine.Engine.request -> unit
(** Route and enqueue one request. One shard: {!Cdw_engine.Engine.submit}
    on its engine, journaled before it returns. N shards: one atomic
    fetch-add (the global sequence number), one atomic push onto the
    shard's inbox — no lock, no journal I/O; the WAL record is written
    when the shard's next drain ingests the request (see the module
    preamble). *)

val drain : t -> Cdw_engine.Engine.reply list
(** Serve every pending request on every shard and merge the replies:
    users in global first-submission order, each user's replies in
    submission order — the exact order a single engine's
    {!Cdw_engine.Engine.drain} returns. One shard drains on the caller
    ({!Cdw_engine.Engine.drain_fanout}); N shards send one job to each
    pinned domain, spawning them on first use. If shards fail, the
    lowest shard's exception is raised once every shard has finished. Shards share no
    session state, so the replies do not depend on the shard count. *)

val session : t -> string -> Cdw_engine.Session.t
(** The user's session on its shard ({!Cdw_engine.Engine.session}): the
    one the shard holds, or, for a user with no request served yet, a
    fresh session the shard does not register — reading a user creates
    no state, so the ledger never needs a record to reproduce it. *)

val forget : t -> string -> unit
(** Drop the user's session on its shard
    ({!Cdw_engine.Engine.forget}): GDPR erasure / session close.
    Requests of that user still in flight are kept and will re-create
    a fresh session at the next drain. *)

val set_journal : t -> (Cdw_engine.Engine.event -> unit) option -> unit
(** Test-only: the tests journal into memory.

    Install (or remove) one journal callback on {e every} shard
    engine. During a multi-shard drain the callback runs concurrently
    on several pinned domains — users are disjoint across shards, so
    events of one user never race, but the callback itself must be
    thread-safe. (The per-shard {!journal} ledgers do not go through
    this hook; they attach store callbacks per engine.) *)

val sessions : t -> (string * Cdw_engine.Session.t) list
(** Test-only: the shard differential tests compare sessions.

    All {e resident} sessions of all shards, sorted by user id. *)

val set_mem_cap : ?session_bytes:int -> t -> int option -> unit
(** Bound resident-session memory across the group: the cap is split
    evenly across shards (the router spreads users near-uniformly) and
    each shard engine tiers independently
    ({!Cdw_engine.Engine.set_mem_cap}). The per-session byte estimate
    is measured once on shard 0 and shared, so every shard gets the
    same resident budget. [None] turns tiering off everywhere. *)

val tier_stats : t -> Cdw_engine.Tier.stats option
(** Tiering counters summed across shards. The peak fields are sums of
    per-shard peaks — an upper bound on the instantaneous group peak. *)

val session_states : t -> (string * (int * int) list * int list) list
(** Every user's recoverable state across all shards and both tiers,
    sorted by user id ({!Cdw_engine.Engine.session_states}). *)

(** {1 Merged observability} *)

val metrics : t -> Cdw_engine.Metrics.t
(** A {e fresh} registry holding the fold of every shard's metrics
    ({!Cdw_engine.Metrics.merge_into}): counters summed, latency
    aggregates exact, histograms (and thus percentiles) bucket-exact.
    A snapshot — it does not track the shards afterwards. *)

val metrics_json : t -> Cdw_util.Json.t
(** {!Cdw_engine.Metrics.to_json} of the merged registry, extended
    with a ["sessions"] object (lifetime totals, the same with or
    without a memory cap: [count], resident plus parked sessions;
    [solver_runs], the [solve.<algorithm>] counter; [free_hits] and
    [full_resolves], the [session.free_hits]/[session.full_resolves]
    counters of {!Cdw_engine.Session}), a ["solve_memo"] object (the shards' summed
    [solve.memo.hit]/[solve.memo.miss] counters as [hits]/[misses],
    and [hit_frac] = hits / (hits + misses), 0 before any lookup), the
    ["shards"] count, the ["domains"] array
    ({!domain_stats}), and, when tiering is on, a ["tier"] object
    ({!tier_stats}). *)

val prometheus : t -> string
(** All shards in one Prometheus exposition, each shard's series
    labelled [shard="<i>"] ({!Cdw_engine.Metrics.prometheus_sets}).
    At N shards these include each pinned domain's accounting series
    ([cdw_domain_*], {!Cdw_engine.Domain_acct}); one shard has none. *)

val domain_stats : t -> Cdw_engine.Domain_acct.stats list
(** One {!Cdw_engine.Domain_acct.stats} per pinned shard domain (index
    = shard id): busy/idle/barrier/phase µs, write-behind journal lag,
    inbox depth gauges, read from each shard engine's registry. Empty
    for one shard, which has no pinned domain. Lock-free reads — safe
    from any thread while serving, and from a signal handler. Also
    embedded in {!metrics_json} as the ["domains"] array. *)

(** {1 Durability} *)

val shard_dir : string -> int -> string
(** Test-only: the tests locate one shard's ledger.

    [shard_dir root i] is [root/shard-<i>] — where shard [i]'s ledger
    lives. *)

val journal :
  ?fsync:Cdw_store.Wal.fsync_policy ->
  ?snapshot_every_bytes:int ->
  dir:string ->
  t ->
  unit
(** Attach a fresh per-shard ledger under [dir]: writes [group.json]
    (pinning the shard count), then {!Cdw_store.Store.create_for} on
    every shard engine in its {!shard_dir} — one shard included. Any
    previous ledger files in those directories are dropped. Records
    are written in global sequence order per shard (see the module
    preamble on the durability contract). Raises [Invalid_argument]
    if the group is already journaled. *)

val stores : t -> Cdw_store.Store.t array
(** The per-shard ledgers in shard order; [[||]] when not journaled. *)

val snapshot : t -> unit
(** Coordinated drain-boundary snapshot: {!Cdw_store.Store.write_snapshot}
    on every shard, each keyed to its own WAL offset. Users are
    disjoint across shards, so the per-shard boundaries jointly
    describe one consistent group state. Same precondition as the
    store call: no pending requests in the {e engines} (drain first).
    Inbox items of a multi-shard group not yet drained are not
    captured — they are not yet journaled either, so ledger and
    snapshot agree. A no-op when not journaled. *)

val compact : t -> unit
(** {!Cdw_store.Store.compact} every shard (snapshot into the next WAL
    generation, drop the old log). Same precondition as {!snapshot}.
    A no-op when not journaled. *)

val close : t -> unit
(** Stop and join the pinned drain domains and the one-shard fan-out
    helpers (whichever were spawned), then close every shard's ledger.
    Idempotent. Call this on every group — leaked domains are a finite
    resource under OCaml 5, and a ledger flushes on close. *)

(** {1 Recovering a root}

    A root holds one engine's ledger (no [group.json]: shard 0 is the
    root) or a group's ([group.json] plus [shard-<i>/]). Each function
    below resolves the layout the same way, runs its per-shard step in
    parallel on a {!Cdw_engine.Domain_pool} that is closed before it
    returns (no serving domain exists yet at recovery time), and fails
    on the lowest failing shard with an error tagged [shard-<i>:].
    [Error] also covers a malformed [group.json] and a root that holds
    no ledger at all. *)

type 'a recovery = {
  serving : 'a;  (** the resumed serving value ({!resume}); [()] for {!recover} *)
  shard_recoveries : Cdw_store.Store.recovery array;
      (** per-shard recovery detail, index = shard id *)
  replayed : int;  (** total WAL records replayed across shards *)
  damaged : int list;
      (** shards whose WAL tail was torn or corrupt (prefix recovered,
          tail discarded) *)
}

val verify : string -> (Cdw_store.Store.report array, string) result
(** {!Cdw_store.Store.verify} every shard's ledger, index = shard id. *)

val recover : string -> (unit recovery, string) result
(** Read-only recovery: {!Cdw_store.Store.recover} every shard. Each
    recovered engine owns its base parsed from its own manifest
    (recovery does not share the frozen base — every shard manifest
    embeds the identical workflow). Damaged WAL {e tails} never fail
    recovery, they only shorten that shard's prefix. *)

val resume :
  ?fsync:Cdw_store.Wal.fsync_policy ->
  ?snapshot_every_bytes:int ->
  string ->
  (t recovery, string) result
(** Crash-restart entry point: {!Cdw_store.Store.resume} every shard
    (recover, truncate each WAL to its valid prefix, re-attach) and
    assemble the recovered engines into a serving value that keeps
    journaling into the same ledgers. On a per-shard failure every
    already-opened store is closed before the error returns. This is
    how [cdw serve --journal DIR] restarts over an existing ledger
    without being told its shape. *)
