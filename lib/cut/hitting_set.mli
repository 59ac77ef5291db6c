(** Weighted minimum hitting set.

    A multicut must hit every s→t path, so minimum multicut over an
    (explicit or lazily grown) path pool *is* weighted hitting set. Two
    exact solvers are provided — the LP-based branch-and-bound mirroring
    the paper's GLPK formulation, and a combinatorial branch-and-bound —
    plus the classic greedy approximation. Elements are integers (edge
    variable indices in the multicut use). *)

type problem = {
  n_elems : int;
  weights : float array;  (** per element, non-negative *)
  sets : int array array;  (** each set must receive ≥ 1 chosen element *)
}

type presolve_info = {
  reduced : problem;
  kept_elems : int array;  (** reduced element index → original element *)
  forced : int list;  (** original elements every solution must take *)
}

val presolve : problem -> presolve_info
(** Test-only: checked against the reference presolve in the tests.

    Classic set-cover reductions, applied to fixpoint:
    - a set that is a superset of another set is dropped (row dominance);
    - an element whose set membership is a subset of a cheaper-or-equal
      element's membership is dropped (column dominance);
    - a singleton set forces its element, satisfying every set
      containing it.
    Any optimal solution of [reduced], translated through [kept_elems]
    and extended with [forced], is optimal for the original problem. *)

val solve_ilp : problem -> bool array
(** Test-only: the cold one-shot solve, the per-round solver of the
    reference lazy loop the multicut tests hold {!solve_pool_ilp} to.

    Exact. First {!Cdw_lp.Simplex.solve_cover_unique} on the problem as
    given, with no presolve: when it certifies a unique 0/1 optimum,
    that set is the answer. Otherwise (a tied or fractional optimum, or
    its pivot cap) {!Cdw_lp.Ilp} on the presolved problem, which would
    return the same set had the certificate held. Raises
    [Invalid_argument] on an empty set (unhittable); raises
    [Cdw_util.Timing.Timeout] when the branch-and-bound tree outgrows
    {!Cdw_lp.Ilp.solve}'s node limit. *)

type pool
(** A program that grows between solves, as the lazy multicut's path
    pool does: elements and sets are appended, never removed. *)

val create_pool : unit -> pool

val add_elem : pool -> float -> unit
(** Append an element with the given weight; it takes the next index,
    from 0. *)

val add_set : pool -> int array -> unit
(** Append a set of existing elements. *)

val pool_problem : pool -> problem
(** The program as it stands, for the other solvers. *)

val solve_pool_ilp : ?deadline:float -> pool -> bool array
(** {!solve_ilp} on the program as it stands, with the same answer,
    the same exceptions (an empty set or a negative weight is rejected
    when a solve first sees it) and the same [deadline]. One
    {!Cdw_lp.Simplex.cover} state lives for the pool's lifetime: each
    call appends the elements and sets added since the last one and
    resumes the dual simplex from its last basis. A certified answer
    is the program's unique optimum, which {!solve_ilp} returns too,
    whether its cold solve certifies or declines; a decline runs
    {!solve_ilp}'s own fallback, presolve + {!Cdw_lp.Ilp}, and no cold
    retry. *)

val solve_bnb : ?deadline:float -> problem -> bool array
(** Exact, combinatorial branch-and-bound: branches on the elements of a
    smallest uncovered set, pruning with a disjoint-set lower bound and a
    greedy initial incumbent. *)

val solve_greedy : problem -> bool array
(** Chvátal-style greedy: repeatedly pick the element minimising
    weight / (number of uncovered sets hit). ln(n)-approximate. *)

val cost : problem -> bool array -> float
(** Test-only: checker for the hitting-set tests. *)

val covers : problem -> bool array -> bool
(** Test-only: checker for the hitting-set tests. *)
