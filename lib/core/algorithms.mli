(** The CDW-LA solving algorithms (§5 of the paper) and two extensions.

    Every function leaves its input workflow untouched and returns a
    solved copy: {!cut} returns only what the algorithm computes, and
    {!solve} adds the report one-shot callers print ({!outcome}). All algorithms return *feasible*
    solutions — no constrained user→purpose path survives — and differ
    in utility and cost:

    - [Remove_random_edge] (Alg. 1): random edge per path; baseline.
    - [Remove_first_edge] (Alg. 2): first edge per path ("do not even
      collect the data type"); [Remove_last_edge] is the variant
      discussed in §6.
    - [Remove_min_cuts] (Alg. 3): greedy per-constraint minimum s–t
      cut, weights refreshed between constraints.
    - [Remove_min_mc] (Alg. 4): one global minimum multicut with
      valuation-derived weights; exact for MINMC but not always for
      CDW-LA (§6), near-optimal in practice (Table 3).
    - [Brute_force] (Alg. 5): exhaustive search over one-edge-per-path
      choices; optimal, exponential.
    - [Brute_force_bnb] (extension): same optimum via branch-and-bound
      with the monotone-utility upper bound; usually far fewer
      candidates.

    Long-running searches honour a cooperative [deadline]
    ({!Cdw_util.Timing.Timeout}) and a path-enumeration cap
    ({!Cdw_graph.Paths.Too_many_paths}). *)

(** {1 Options}

    Every tuning knob of every algorithm, gathered in one record. The
    functions {!remove_first_edge}, {!remove_min_mc} and {!brute_force}
    remain as thin wrappers for their callers; {!cut} and {!solve} are
    the two entry points: {!Incremental} and the serving engine go
    through {!cut}, the CLI and the experiment harness through
    {!solve}. *)
module Options : sig
  type path_provider =
    Workflow.t ->
    source:int ->
    target:int ->
    Cdw_graph.Digraph.edge list list
  (** Supplies the *live* s→t paths of the given workflow, replacing the
      default DFS enumeration of the path-based algorithms. The serving
      engine uses this to answer path queries from a shared
      per-(user, purpose) cache: enumerate once on the immutable base,
      filter by edge liveness per request. The provider must return
      exactly the paths [Cdw_graph.Paths.all_paths] would, in the same
      order. *)

  type t = {
    rng : Cdw_util.Splitmix.t option;
        (** randomness for [Remove_random_edge]; [None] uses a fixed
            default seed *)
    deadline : float;
        (** absolute cooperative deadline ({!Cdw_util.Timing}); honoured
            by the multicut backend and the exhaustive searches. Default
            [infinity]. *)
    max_paths : int option;
        (** path-enumeration cap for the exhaustive searches *)
    scheme : Utility.weight_scheme option;
        (** cut-weight scheme of Algorithms 3/4 (default
            [Path_count_mass], see DESIGN.md §2) *)
    backend : Cdw_cut.Multicut.backend;
        (** multicut backend of [Remove_min_mc] (Algorithm 4). Default
            [Ilp]; [Exact_ilp] and [Approx_lp] fix their own. *)
    utility : (Workflow.t -> float) option;
        (** objective for the exhaustive searches; generalises to
            arbitrary CDW models (must be monotone non-increasing under
            edge removal for [Brute_force_bnb]) *)
    paths_for : path_provider option;
    solver_budget_ms : float option;
        (** wall-clock budget of the multicut backend of
            [Remove_min_mc], [Exact_ilp] and [Approx_lp], *tighter*
            than [deadline]: exhausting it answers at once from the
            greedy multicut instead of raising, so serving always
            answers ({!Cdw_cut.Multicut.solve}'s [budget_ms]). [None]
            is the algorithm's default: 5 s for [Remove_min_mc],
            unbounded for the oracle tiers, which then fall back only
            when the ILP's node limit is hit or the simplex gets stuck. *)
  }

  val default : t
  (** [None]/[infinity] everywhere, [Ilp] backend — the behaviour of
      each wrapper function called with no optional arguments. *)
end

type cut = {
  workflow : Workflow.t;  (** solved copy of the input *)
  candidates : int;
      (** candidates evaluated (brute-force searches; 1 otherwise) *)
  tier : string option;  (** as in {!outcome} *)
  bound : float option;  (** as in {!outcome} *)
  budget_fallback : bool;  (** as in {!outcome} *)
}
(** What an algorithm computes: the solved copy and how it was found.
    Serving reads nothing else, so a served solve pays for no utility
    sweep and no removed-edge diff. *)

type outcome = {
  workflow : Workflow.t;  (** solved copy of the input *)
  removed : Cdw_graph.Digraph.edge list;
      (** edges removed from the copy, cascades included *)
  utility_before : float;
  utility_after : float;
  candidates : int;
      (** candidates evaluated (brute-force searches; 1 otherwise) *)
  tier : string option;
      (** which tier answered, for [Exact_ilp]/[Approx_lp]:
          ["exact-ilp"], ["approx-lp"], or ["fallback:remove-min-mc"]
          when the solver budget ran out and the greedy multicut —
          RemoveMinMC's own answer past its budget — answered. [None]
          for the other algorithms. *)
  bound : float option;
      (** proven lower bound on the optimal cut weight obtained by the
          solver tier (tight for ["exact-ilp"]); [None] on fallback and
          for the other algorithms *)
  budget_fallback : bool;
      (** a solver budget ran out and the greedy multicut answered
          ([Remove_min_mc], or [tier] is ["fallback:remove-min-mc"]).
          Such an answer depends on the wall clock (the same inputs may
          solve exactly on a rerun), so it must not stand in for another
          solve. *)
}
(** A {!cut} plus the report one-shot callers print: the removed edges
    and the utility before and after. *)

val utility_percent : outcome -> float
(** [100 · after / before]. *)

val remove_first_edge : Workflow.t -> Constraint_set.t -> outcome

val remove_min_mc :
  ?scheme:Utility.weight_scheme ->
  ?deadline:float ->
  Workflow.t ->
  Constraint_set.t ->
  outcome
(** The exact ILP multicut under a 5 s budget, the greedy multicut past
    it on dense instances where exact multicut blows up (cf. the
    paper's dataset 1c discussion). *)

val brute_force :
  ?deadline:float ->
  ?max_paths:int ->
  ?utility:(Workflow.t -> float) ->
  Workflow.t ->
  Constraint_set.t ->
  outcome
(** [utility] generalises the objective to arbitrary CDW models
    (§5: the exhaustive search works for any valuation/utility
    functions); see {!Models}. Defaults to CDW-LA's Eq. 1. *)

type name =
  | Remove_random_edge
  | Remove_first_edge
  | Remove_last_edge
  | Remove_min_cuts
  | Remove_min_mc
  | Brute_force
  | Brute_force_bnb
  | Exact_ilp
      (** exact minimum multicut, {!Cdw_cut.Multicut.solve} with the
          [Ilp] backend — the ground-truth oracle; [outcome.bound] is
          the optimal cut weight. The same solve as [Remove_min_mc]
          with another default budget ([Options.solver_budget_ms]); on
          exhaustion the greedy multicut answers ([outcome.tier] says
          which tier did). *)
  | Approx_lp
      (** {!Cdw_cut.Multicut.solve} with the [Lp_rounding] backend: LP
          threshold rounding with a guaranteed ratio (the longest
          discovered path length), [outcome.bound] the pool LP value;
          same budget/fallback. *)

val all_names : name list

val to_string : name -> string

val of_string : string -> name option

val cut :
  ?options:Options.t -> name -> Workflow.t -> Constraint_set.t -> cut
(** Dispatch by name under the given {!Options.t} (default
    {!Options.default}). Each algorithm reads only the options that
    concern it, exactly as the wrapper functions above document. *)

val solve :
  ?options:Options.t -> name -> Workflow.t -> Constraint_set.t -> outcome
(** {!cut} and its report. The utility is [options.utility] for the
    exhaustive searches and Eq. 1 for every other algorithm. *)

