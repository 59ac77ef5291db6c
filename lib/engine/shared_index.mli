(** The engine's amortization core: one immutable base workflow plus the
    structure every solve would otherwise re-derive from scratch.

    A naive consent service answers each request by re-running
    reachability BFS and per-constraint path enumeration on a private
    copy of the workflow. Since the base workflow is the same for every
    user, all of that is shared here instead:

    - an all-pairs reachability snapshot ({!Cdw_graph.Reach.Snapshot}) —
      O(1) [connected] queries,
    - a memoized per-(user, purpose) path cache with a bounded number of
      cached pairs and a per-pair enumeration cap,
    - a per-epoch solve memo ({!memoized}): users hold few distinct
      preference types, so each distinct solve input is solved once
      and its outcome shared by every session that asks again.

    The base is *frozen* ({!Cdw_core.Workflow.freeze}): its graph is an
    immutable CSR snapshot, and sessions work on copy-free *views* of it
    — a private O(E/8) removed-edge bitset over the shared arrays,
    instead of a deep per-session copy. Cached base paths still serve
    them: a base path is a live path of the view iff every one of its
    edges is still live (views preserve edge ids), so {!live_paths}
    filters rather than re-enumerates — and the filtered list provably
    equals what a fresh DFS on the view would produce, in the same order
    (property-tested in [test_engine.ml]).

    All queries are thread-safe; the underlying snapshot and the base
    itself are immutable, the path cache takes a mutex. Cache traffic is
    counted in the shared {!Metrics.t} under [index.*]. *)

type t

val create : ?max_paths:int -> Cdw_core.Workflow.t -> t
(** Freezes the given workflow (a private immutable CSR base; the input
    is never modified) and precomputes the reachability snapshot, with a fresh metrics registry. The path sets of at most
    4096 (source, target) pairs are memoized; beyond that, path queries
    fall through to plain enumeration. [max_paths] (default 200_000)
    caps enumeration per pair; pairs that overflow are remembered as
    such and always answered by direct (capped) enumeration on the live
    workflow. *)

val base : t -> Cdw_core.Workflow.t
(** The immutable base of the {e current} epoch. Never mutate it —
    every session of the pool shares it. *)

val epoch : t -> int
(** The current base's epoch (0 until an {!install}). *)

val install : ?epoch:int -> t -> Cdw_core.Workflow.t -> unit
(** Swap in a new base: freeze the workflow as epoch [epoch] (default:
    current epoch + 1), recompute the reachability snapshot and start
    an empty path cache and solve memo. Nothing of the old epoch is
    kept, and no diff against it is computed: migration remaps by
    vertex name ({!Cdw_core.Evolution.counterpart}) and re-solves.
    Must only be called at a drain boundary with no solver running — the engine's migrate owns
    that argument; sessions created before the install keep referencing
    the old base and must be migrated by the caller. *)

val metrics : t -> Metrics.t

val connected : t -> source:int -> target:int -> bool
(** O(1): was [target] reachable from [source] in the base? *)

val live_paths :
  t -> Cdw_core.Workflow.t -> source:int -> target:int ->
  Cdw_graph.Digraph.edge list list
(** Test-only: the path-cache tests compare it with fresh enumeration.

    The live source→target paths of the given workflow, which must be
    the base itself or a (possibly cut) copy of it. Served by filtering
    the cached base path set by edge liveness; counts
    [index.paths.hit]/[.miss]/[.overflow]. *)

val path_provider : t -> Cdw_core.Algorithms.Options.path_provider
(** {!live_paths} packaged for {!Cdw_core.Algorithms.Options}. *)

val memoized :
  t ->
  base:Cdw_core.Workflow.t ->
  algorithm:Cdw_core.Algorithms.name ->
  Cdw_core.Workflow.t ->
  Cdw_core.Constraint_set.t ->
  (unit -> Cdw_core.Algorithms.cut) ->
  Cdw_core.Algorithms.cut
(** [memoized t ~base ~algorithm wf cs solve]: the cut of solving
    [cs] on [wf] — [solve ()] the first time an input is seen in this
    epoch, the memoized cut after that. [base] is the base the
    caller's sessions were created on; [solve] must run [algorithm]
    under the index-wide options template, so that the outcome is a
    function of the key alone.

    The key is the algorithm, [wf]'s cut ids relative to the base
    ([[]] when [wf == base]) and [cs] in its given order: solvers
    iterate constraints in list order, so [[p; q]] and [[q; p]] are
    separate entries. A hit returns the very cut of the first
    solve, whose workflow is then shared by every session holding it;
    this is sound because solvers only ever work on a copy of their
    input, so a served workflow is never mutated.

    Never memoized, always solved: [Remove_random_edge] (it draws from
    the session generator, whose state must keep advancing), an
    outcome with [budget_fallback] set (it depends on the wall clock),
    a [base] that is no longer the current epoch's, and a [wf] that
    restored an edge the base had removed. The memo lives in the
    epoch's derived state, so {!install} drops it; it is allocated on
    first insert and stops inserting at a fixed capacity of 4096
    entries.

    Solves are single-flight: lookup and insert take the index lock,
    the solve runs outside it, and a domain that misses on a key
    another domain is solving waits for that answer instead of solving
    the key again. If that solve raises or falls back on its budget,
    each waiter solves for itself. Counts one [solve.memo.miss] per
    solve run and one [solve.memo.hit] per answer served from the memo
    or from another domain's solve (bypasses count neither). *)
