(** The durable consent ledger beneath {!Cdw_engine.Engine}.

    Consent decisions are legally load-bearing state (audit trails,
    GDPR article 7(1) proof of consent); an engine that loses them on
    restart cannot be trusted with them. A store makes the engine
    durable with the classic WAL + snapshot architecture:

    - a {b manifest} ([manifest.json]) pins what state is relative to:
      the base workflow (embedded in its text serialisation — names are
      the stable identity), the solving algorithm and the engine seed;
    - a {b write-ahead log} ([wal-NNNNNN.log], {!Wal}) of framed
      {!Record}s — every {!Cdw_engine.Engine.submit} is journaled
      before it returns (and before it is even enqueued, so a record
      the log rejects leaves engine and WAL agreeing); session
      opens/closes ride along, and each drain's boundary mark is
      appended atomically with its queue swap, so the records
      preceding a mark are exactly the batch that drain consumed;
    - a {b snapshot} ([snapshot.json], format 3.0) of every session's
      accepted constraint pairs (in accepted order: solvers iterate
      them in list order) and cut edges plus the base epoch and
      its workflow text, keyed to the log generation and the byte
      offset of a drain boundary: every state-bearing record before
      the offset is folded in, everything after is still queued and
      replays on recovery. Written atomically (tmp + rename), after
      the WAL is synced, so a snapshot is never durable ahead of the
      log it covers. Format
      1.x/2.0 snapshots (no epoch) still recover, as the implicit
      epoch 0 on the manifest's workflow;
    - {b recovery} ({!recover}): load the manifest, restore the latest
      snapshot into a fresh engine, replay the WAL tail, and stop
      cleanly at a torn or corrupted record — yielding exactly the
      state implied by the surviving event prefix;
    - {b compaction} ({!compact}): fold the whole log into a new
      snapshot pointing at a fresh (next-generation) empty WAL, then
      delete the old one. The snapshot rename is the commit point, so
      a crash at any byte of compaction recovers to the same state.

    Wiring is one call: [Store.attach store engine] installs a journal
    hook ({!Cdw_engine.Engine.set_journal}) that logs every event and
    auto-snapshots at drain boundaries once [snapshot_every_bytes] of
    log have accumulated. The lock order is engine before store — the
    store never calls back into the engine while holding its own lock
    (most events arrive with the engine lock held; the auto-snapshot
    reads engine state from the [Drain_settled] callback, which runs
    outside it) — so concurrent submitters are deadlock-free.

    Recovery invariants (fault-injection tested in [test_store.ml]):
    the recovered per-user constraint sets equal those of a fresh
    engine fed the surviving record prefix; with a deterministic
    algorithm, resolving every recovered session yields the same cut
    edges and utility as a fresh solve of those constraint sets. The
    engine's solver options beyond algorithm and seed are not
    persisted (they contain closures); recovery uses the defaults. *)

type t

val create :
  ?fsync:Wal.fsync_policy ->
  ?snapshot_every_bytes:int ->
  dir:string ->
  algorithm:Cdw_core.Algorithms.name ->
  seed:int ->
  Cdw_core.Workflow.t ->
  t
(** Test-only: the tests journal a bare engine.

    A fresh ledger: creates [dir] if needed, removes any previous
    ledger files in it, writes the manifest and an empty
    generation-0 WAL. [fsync] defaults to [Every 32];
    [snapshot_every_bytes] (default 1 MiB) is the auto-snapshot
    threshold used by {!attach} ([max_int] disables). *)

type recovery = {
  engine : Cdw_engine.Engine.t;  (** fresh engine holding the recovered state *)
  algorithm : Cdw_core.Algorithms.name;
  seed : int;
  generation : int;  (** WAL generation recovered from *)
  snapshot_users : int;  (** sessions restored from the snapshot *)
  replayed : int;  (** WAL records replayed after the snapshot *)
  valid_end : int;  (** byte length of the valid WAL prefix *)
  tail : Wal.tail;  (** why replay stopped, if not at a clean end *)
}

val recover : string -> (recovery, string) result
(** Reconstruct engine state from the ledger directory, read-only.
    [Error] means the manifest or snapshot is unreadable — a damaged
    WAL {e tail} never fails recovery, it only shortens the prefix
    (reported in [tail]). *)

val resume :
  ?fsync:Wal.fsync_policy ->
  ?snapshot_every_bytes:int ->
  string ->
  (t * recovery, string) result
(** The crash-restart entry point: {!recover} the engine, truncate the
    WAL to its valid prefix (discarding any torn/corrupt tail so new
    appends extend a well-formed log), open the store and {!attach} it
    to the recovered engine. A WAL shorter than the snapshot's offset
    is never extended: the store rolls to the next generation first,
    as {!compact} does. *)

val attach : t -> Cdw_engine.Engine.t -> unit
(** Test-only: the tests journal a bare engine.

    Journal every engine event into the WAL and auto-snapshot at drain
    boundaries. The auto-snapshot keys to the journaled boundary
    offset, so it tolerates submitters racing the drain (their records
    sit after the boundary and replay on recovery) and never raises.
    The engine's base workflow must be the manifest's workflow (names
    resolve the journal's vertex references) — or, after epoch
    migrations, a descendant of it: records always encode against the
    engine's base {e of the moment}, and [Epoch_installed] records
    carry the full workflow text so replay re-freezes each base
    deterministically before decoding the records that follow it. *)

val create_for :
  ?fsync:Wal.fsync_policy ->
  ?snapshot_every_bytes:int ->
  dir:string ->
  Cdw_engine.Engine.t ->
  t
(** {!create} with workflow, algorithm and seed taken from the engine,
    followed by {!attach}. *)

val group_commit : t -> (unit -> 'a) -> 'a
(** {!Wal.group_commit} on the current WAL: the records the calling
    thread logs during [f] reach the kernel together when [f] ends,
    with one fsync-policy check. *)

val wal_length : t -> int
(** Test-only: lets the tests see what was appended. *)

val generation : t -> int

val write_snapshot : t -> Cdw_engine.Engine.t -> unit
(** Snapshot the engine's current per-session constraint state, keyed
    to the current WAL generation and offset. Atomic (tmp + rename).
    Raises [Invalid_argument] if requests are pending — snapshots are
    only consistent at drain boundaries. *)

val compact : t -> Cdw_engine.Engine.t -> unit
(** {!write_snapshot} into the {e next} WAL generation (offset 0) and
    delete the old log. Same drain-boundary precondition. *)

val close : t -> unit

(** {1 Offline inspection} *)

type report = {
  r_dir : string;
  r_algorithm : Cdw_core.Algorithms.name;
  r_seed : int;
  r_vertices : int;
  r_edges : int;
  r_generation : int;
  r_has_snapshot : bool;
  r_snapshot_offset : int;
  r_snapshot_users : int;
  r_wal_bytes : int;
  r_valid_end : int;  (** end of the decodable record prefix *)
  r_records : int;
  r_drains : int;
  r_epoch : int;
      (** the base epoch the ledger lands on: the snapshot's, advanced
          by every [Epoch_installed] record in the valid prefix *)
  r_tail : Wal.tail;
}

val verify : string -> (report, string) result
(** Scan the whole current-generation WAL, decoding every record.
    An undecodable-but-CRC-valid record is reported as a corrupt tail
    at its offset. *)

val report_clean : report -> bool

val pp_report : Format.formatter -> report -> unit

val write_atomic : string -> string -> unit
(** [write_atomic path content] publishes [content] at [path]: written
    to [path ^ ".tmp"], fsynced, renamed over [path], and the directory
    fsynced, so a reader sees the old file or the new one and a crash
    after it returns keeps the new one. Every ledger manifest and
    snapshot is written this way, and so is a group's [group.json]. *)

(** {1 Paths} (for tooling and fault injection) *)

val manifest_path : string -> string
(** Test-only: the fault tests locate ledger files. *)

val snapshot_path : string -> string
(** Test-only: the fault tests locate ledger files. *)

val wal_path : string -> generation:int -> string
(** Test-only: the fault tests locate ledger files. *)

val current_wal_path : string -> (string, string) result
(** The generation the snapshot (or, absent one, generation 0) points
    at. *)

val snapshot_state_json : Cdw_engine.Engine.t -> Cdw_util.Json.t
(** The deterministic per-user state object (users sorted, pairs
    sorted) — the snapshot body's layout, except that a snapshot keeps
    each user's pairs in accepted order. [cdw store replay --state]
    prints it, and tests compare it to assert that compaction
    preserves state byte-for-byte. *)
