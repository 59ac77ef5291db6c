(** One user's consent session inside the engine pool.

    A session is a {!Cdw_core.Incremental} consent state wired onto the
    engine's shared structure instead of private recomputation:

    - it shares the pool's immutable base workflow (no per-session
      copies of the base),
    - base-connectivity checks go through the shared reachability
      snapshot (O(1) instead of BFS),
    - the solving algorithm pulls constraint paths from the shared
      per-(user, purpose) cache,
    - every solve first asks the index's per-epoch solve memo
      ({!Shared_index.memoized}): a session whose (cuts, ordered
      constraint list) input another session already solved takes that
      outcome, sharing its workflow, instead of running the solver,
    - every solve is counted in the engine's {!Metrics.t}
      ([solve.<algorithm>] counts every solve a session asks for, memo
      hits included; [solve.memo.hit]/[solve.memo.miss] count memo
      lookups) and real solver runs alone are timed under the [solve]
      latency key. The session's {!stats} [solver_runs] likewise counts
      asks, memo hits included,
    - the free hits and full re-solves of {!stats} are also summed into
      the engine's registry as [session.free_hits] and
      [session.full_resolves], bumped only by a request that moves
      them; with [solve.<algorithm>] these are the engine's lifetime
      totals, kept when a session is evicted or forgotten.

    Randomized solves draw from a per-session generator seeded
    deterministically from the engine seed and the session id, so batch
    results are reproducible and independent of drain parallelism (the
    engine serialises each session's requests). Sessions are not
    themselves thread-safe — the engine never runs two requests of one
    session concurrently. *)

type t

val create :
  index:Shared_index.t ->
  algorithm:Cdw_core.Algorithms.name ->
  options:Cdw_core.Algorithms.Options.t ->
  rng_seed:int ->
  string ->
  t
(** [create ~index ~algorithm ~options ~rng_seed id]: [options] is the
    engine-wide template; its [rng] is replaced by a fresh
    [Splitmix.create rng_seed] and its [paths_for] by the shared
    index's path provider. *)

val workflow : t -> Cdw_core.Workflow.t
(** Test-only: the consent checks in the tests read the session workflow.

    The session's current consented workflow. Read-only: it aliases the
    shared base until the first cut. *)

val constraints : t -> Cdw_core.Constraint_set.t

val utility : t -> float

val stats : t -> Cdw_core.Incremental.stats
(** Test-only: the engine tests count one session's solver runs.

    This session's own counts since it was created or hydrated: a
    hydrated session starts from zero. *)

val add : t -> (int * int) list -> (unit, string) result

val withdraw : t -> (int * int) list -> (unit, string) result

val update :
  t -> add:(int * int) list -> withdraw:(int * int) list ->
  (unit, string) result
(** {!Cdw_core.Incremental.update}: one atomic net change, at most one
    solve — what a coalesced drain batch executes. *)

val resolve : t -> unit
(** Batch re-solve of all accepted constraints from the base. *)

val cut_ids : t -> int list
(** Edge ids the session's solves have removed relative to the shared
    base, ascending ({!Cdw_core.Incremental.delta_removed_ids}). With
    {!constraints} this is the session's full recoverable state, as
    serialized into ledger snapshots. *)

val restore :
  t -> constraints:(int * int) list -> removed_ids:int list ->
  (unit, string) result
(** Install a previously captured (constraints, cut_ids) state without
    running the solver ({!Cdw_core.Incremental.restore}). *)

val rng_state : t -> int64
(** The session generator's state word ({!Cdw_util.Splitmix.state}).
    Captured at tier eviction alongside {!constraints} and {!cut_ids},
    so a rehydrated session's randomized solves continue the exact
    stream an unevicted one would have — eviction is observably
    transparent even under [remove-random-edge]. *)

val set_rng_state : t -> int64 -> unit
(** Rewind the session generator to a {!rng_state} capture. *)
