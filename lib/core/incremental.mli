(** Incremental consent maintenance (§8 scalability discussion).

    In production, constraints arrive over time: users join, users
    tighten their preferences. Recomputing the consented workflow from
    scratch on every change wastes the work already done, so a session
    keeps the current consented workflow and, on arrival of new
    constraints, only solves for the pairs that are still connected —
    pairs already disconnected by earlier cuts cost nothing.

    Constraint *withdrawal* cannot reuse previous cuts (an edge removed
    for a withdrawn constraint may have to come back), so it triggers a
    full re-solve from the pristine base; {!stats} reports how often
    each case occurred.

    Incremental solving is order-greedy: the resulting utility can be
    below what a batch solve of the same constraint set achieves
    (tested in [test_incremental.ml]); {!resolve_batch} re-optimises in
    place when that matters. *)

type t

type stats = {
  solver_runs : int;
      (** Test-only: the incremental and engine tests count one
          session's solves (served totals are the [solve.<algorithm>]
          counter).

          Times the underlying algorithm executed. *)
  free_hits : int;  (** constraints satisfied with zero solver work *)
  full_resolves : int;  (** scratch recomputations (withdrawals, batch) *)
}

type base_oracle = { connected : source:int -> target:int -> bool }
(** Answers connectivity questions about the *pristine base* workflow —
    typically a precomputed {!Cdw_graph.Reach.Snapshot} shared by many
    sessions over the same base. Used wherever the session would
    otherwise BFS the un-cut base (or the still-pristine current
    workflow), turning those checks into O(1) lookups. *)

val create :
  ?algorithm:(Workflow.t -> Constraint_set.t -> Algorithms.cut) ->
  ?oracle:base_oracle ->
  ?copy_base:bool ->
  Workflow.t ->
  t
(** [algorithm] defaults to [Algorithms.cut Remove_min_mc]. The
    session works on private copies; the input workflow is never
    modified.

    [copy_base] (default [true]) controls whether the session snapshots
    the input workflow. A serving engine pooling hundreds of sessions
    over one immutable base passes [~copy_base:false] to share that base
    instead of duplicating it per session; the caller then guarantees
    the input workflow is never mutated, and must treat {!workflow}'s
    result as read-only (it aliases the base until the first cut). *)

val workflow : t -> Workflow.t
(** The current consented workflow (satisfies every accepted
    constraint). *)

val constraints : t -> Constraint_set.t

val utility : t -> float

val stats : t -> stats

val add : t -> (int * int) list -> (unit, string) result
(** Accept new constraints. Duplicates of already-accepted pairs are
    ignored; invalid pairs reject the whole call without changing the
    session. *)

val withdraw : t -> (int * int) list -> (unit, string) result
(** Remove accepted constraints (unknown pairs are an error) and
    re-solve the remainder from the pristine base. *)

val update :
  t -> add:(int * int) list -> withdraw:(int * int) list ->
  (unit, string) result
(** Apply additions and withdrawals as one atomic net change with at
    most one solver run — the batched equivalent of {!add} followed by
    {!withdraw} (which are both special cases of this). Withdrawn pairs
    may come from [add] of the same call; validation happens before any
    mutation, so an error leaves the session untouched. The serving
    engine uses this to collapse a user's whole request batch into a
    single solve. *)

val resolve_batch : t -> unit
(** Re-solve all accepted constraints in one batch from the base,
    replacing the incrementally built solution (counted as a full
    resolve). *)

val delta_removed_ids : t -> int list
(** Edge ids this session has cut: removed in the current consented
    workflow but not in the pristine base. Ascending. Together with
    {!constraints} this is the session's full recoverable state.
    Computed from the two removal masks
    ({!Cdw_graph.Digraph.removed_beyond}). Raises [Invalid_argument] if
    the session's workflow has live an edge the base removed, which cut
    ids cannot name; solvers only ever cut. *)

val restore :
  t -> constraints:(int * int) list -> removed_ids:int list ->
  (unit, string) result
(** Install a previously captured session state — accepted constraint
    pairs plus {!delta_removed_ids} — without running the solver.
    Replaces the session's current solution wholesale. Invalid pairs or
    unknown edge ids reject the call and leave the session untouched.
    Used by ledger snapshot recovery, where the cuts were already
    computed before the crash. *)
