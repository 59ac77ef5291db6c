(** Minimum multicut on DAGs (the MINMC problem, Eq. 3 of the paper).

    Given terminal pairs [(s, t)], find a minimum-weight edge set whose
    removal leaves no directed s→t path. NP-hard for ≥ 2 pairs (Bentz
    2011), which is exactly what makes CDW hard.

    Every backend runs the same lazy constraint-generation loop instead
    of enumerating all paths: solve a hitting set over the paths
    discovered so far, test whether the chosen edges already disconnect
    every pair, and if not add a surviving path per pair and repeat.
    Each round strictly grows the pool (the incumbent hits every pooled
    path, so any survivor is new). On exit the cut is feasible for the
    full (implicit) path set while the pool is a relaxation of it, so
    the exact backends are exactly optimal — matching what GLPK computes
    for the paper on the explicit formulation — and the approximate
    ones keep their pool guarantee against the true optimum. This one
    loop serves RemoveMinMC and the [exact-ilp] / [approx-lp] oracle
    tiers of {!Cdw_core.Algorithms}. *)

type backend =
  | Ilp  (** hitting set via LP-based branch-and-bound (paper's setup) *)
  | Bnb  (** combinatorial branch-and-bound *)
  | Greedy  (** Chvátal greedy on the lazily grown pool; approximate *)
  | Lp_rounding  (** LP relaxation + threshold rounding; approximate *)

type result = {
  edges : Cdw_graph.Digraph.edge list;  (** the multicut, by edge *)
  weight : float;
      (** Test-only: the multicut tests hold it to [ratio] times the
          optimum. The multicut's total weight. *)
  exact : bool;
      (** Test-only: the oracle gate holds exact answers to the
          optimum and the others to [ratio]. True for
          [Ilp]/[Bnb] backends. *)
  rounds : int;
      (** Test-only: the multicut tests check the loop's trace.
          Lazy-generation iterations used. *)
  lower_bound : float;
      (** proven lower bound on the optimum: [weight] when [exact]; the
          final pool LP value for [Lp_rounding]; [weight /. ratio] for
          [Greedy] *)
  violated : int list;
      (** Test-only: the multicut tests check the loop's trace.
          Surviving (violated) pairs found at each round's start, in
          round order — [rounds + 1] entries, the final one 0: how the
          loop terminated *)
  ratio : float;
      (** Test-only: the multicut tests check the approximation bound.
          Guaranteed ratio of [weight] to the optimum: 1.0 when [exact];
          the longest pooled path length L for [Lp_rounding] (threshold
          rounding at 1/L); H(pooled paths) for [Greedy] (Chvátal) *)
  fell_back : bool;
      (** the [budget_ms] of {!solve} ran out and [Greedy] answered in
          place of the requested backend *)
}

val solve :
  ?backend:backend ->
  ?budget_ms:float ->
  ?deadline:float ->
  Cdw_graph.Digraph.t ->
  weight:(Cdw_graph.Digraph.edge -> float) ->
  pairs:(int * int) list ->
  result
(** [backend] defaults to [Ilp]. [budget_ms] bounds the backend's wall
    clock inside [deadline]. When the budget runs out, the ILP's node
    limit is hit or the simplex gets numerically stuck, and [deadline]
    still has slack, [Greedy] answers under [deadline] and the result
    says [fell_back]. Dense graphs put exact multicut out of reach just
    as they defeat the paper's BruteForce; this is the solver stack's
    one budget-then-greedy path. The graph is not modified (edges are
    soft-removed and restored internally). Raises
    [Cdw_util.Timing.Timeout] when [deadline] fires or, without
    [budget_ms], the node limit is hit; [Failure] from a stuck simplex
    without [budget_ms]; [Invalid_argument] when some pair shares a
    vertex. *)

val is_multicut :
  Cdw_graph.Digraph.t ->
  Cdw_graph.Digraph.edge list ->
  pairs:(int * int) list ->
  bool
(** Test-only: checker for the multicut and oracle tests.

    Does removing [edges] disconnect every pair? (Non-destructive.) *)

val minimalize :
  Cdw_graph.Digraph.t ->
  Cdw_graph.Digraph.edge list ->
  weight:(Cdw_graph.Digraph.edge -> float) ->
  pairs:(int * int) list ->
  Cdw_graph.Digraph.edge list
(** Test-only: unit-tested on its own; {!solve} runs it on every answer.

    Drop redundant edges from a multicut: try to re-admit edges in
    decreasing weight order, keeping the cut property. Applied to the
    approximate backends' results, where it only ever lowers the
    weight. *)
