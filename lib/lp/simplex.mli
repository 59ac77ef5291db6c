(** Two-phase primal simplex over a dense tableau.

    This is the linear-programming substrate standing in for the GLPK
    solver the paper drives through PICOS. It solves

    {v minimize    c · x
   subject to  a_i · x  (≤ | ≥ | =)  b_i     for every constraint i
               x ≥ 0 v}

    Pivoting uses Dantzig's rule while the objective improves and falls
    back to Bland's rule on degenerate plateaus, so it is both fast and
    cycle-free; a step cap still guards against numerical stalling.
    Problem sizes here are the multicut LPs (edges on constraint paths ×
    path constraints), well within dense-tableau territory.

    {!cover} is a separate dual simplex for the covering LPs of the
    exact hitting set, kept as a state that grows by columns and rows:
    it answers only when its optimum is the unique 0/1 one, and declines
    otherwise. {!solve_cover_unique} is its one-batch case. *)

type relation = Le | Ge | Eq

type problem = {
  objective : float array;  (** minimised; length = number of variables *)
  constraints : (float array * relation * float) list;
}

type solution = { x : float array; objective_value : float }

type outcome = Optimal of solution | Infeasible | Unbounded

val solve : ?deadline:float -> problem -> outcome
(** Pivots are capped at [100_000 + 200 * (vars + constraints)].
    Raises [Failure] when the cap is hit (numerically stuck) and
    [Cdw_util.Timing.Timeout] when the cooperative [deadline] (checked
    every few dozen pivots) has passed. *)

val solve_relaxation :
  ?deadline:float -> fixed:int array -> problem -> outcome
(** The LP relaxation of a branch-and-bound node, as {!Ilp.solve} runs
    it: [solve] on [problem] with each variable [j] whose [fixed.(j)]
    is 0 or 1 pinned to that value (substituted into the right-hand
    sides), the others ([fixed.(j) < 0]) kept in order as the
    relaxation's variables, and a row [x_k ≤ 1] per kept variable after
    the problem's rows. [x] is over the kept variables. The bound rows
    are written into the tableau directly, never built as dense
    constraint arrays; the tableau, and so every pivot, is the one
    [solve] builds from that problem spelled out. Raises
    [Invalid_argument] unless [fixed] has one entry per variable. *)

val primal_pivots : unit -> int
(** Test-only: the decline-path work gate holds the primal's pivots to
    the frozen reference's. Pivots of every {!solve} and
    {!solve_relaxation} that returned, across domains. *)

type cover
(** The dual-simplex state of a covering program
    [min w·x, Σ_{e∈S} x_e ≥ 1 for every row S, x ∈ {0,1}^n] that grows:
    columns (variables) and rows (sets) are appended, never removed,
    and {!cover_solve} may run between appends.

    Its contract, which holds between calls: the tableau is the
    program's LP relaxation [min w·x, A x − s = 1, x, s ≥ 0] written in
    the current basis, and that basis is dual-feasible. Both appends
    keep it so. A new column has zeros in every existing row (no
    earlier set names the new variable) and reduced cost [w_j ≥ 0].
    A new row enters with its surplus basic: it is eliminated against
    every current basic column, which leaves the reduced costs as they
    were. So {!cover_solve} resumes the dual simplex from the last
    basis instead of from the all-surplus one, and re-pivots no row it
    already solved. *)

val cover_create : unit -> cover
(** An empty program: no columns, no rows. *)

val cover_add_column : cover -> float -> unit
(** Append a variable with the given weight, which must be
    non-negative; it takes the next variable index, from 0. *)

val cover_add_row : cover -> int array -> unit
(** Append a set: a non-empty array of existing variable indices. *)

val cover_solve : ?deadline:float -> cover -> bool array option
(** [Some x] only when [x] is the unique optimum of the program as it
    stands, and [None] when the dual simplex cannot certify that; the
    state stays usable after either answer.

    At the LP optimum it answers [Some x] only when every basic value
    is 0 or 1 (within 1e-9), [x] covers every set, and every nonbasic
    column is either steep or blocked. A steep column has a reduced
    cost [d_j] above 1e-7, a hundred times the primal's pivot
    tolerance. The other, flat, columns are blocked when one tableau
    row has basic value 0 and a positive entry in every flat column.

    Why [x] is then the unique 0/1 optimum. Write [v_j] for a point's
    value of nonbasic column [j]; the nonbasic values fix the basic
    ones, and [x] has them all 0. For any feasible point [(y, s)],
    [w·y = w·x + Σ_j d_j v_j], and the blocking row reads
    [0 − Σ_j T_ij v_j ≥ 0]. If [y] moves only flat columns, that row
    has every [T_ij > 0] on them, so [v = 0] and [y = x]. Otherwise
    [y] moves a steep column. For a 0/1 point its value is an integer
    ≥ 1: a structural [y_j] is 0 or 1, and a surplus [a_i·y − 1] is a
    non-negative integer. So [w·y ≥ w·x + 1e-7] for every 0/1 point
    [y ≠ x]. The same two cases show that [x] is the only optimum of
    the LP, since an LP optimum moves no column with [d_j > 0].
    {!Ilp.solve} after the set-cover presolve
    therefore returns exactly [x]. Each presolve rule maps every LP
    optimum of its reduced problem, extended with 0 for a dropped
    element and 1 for a forced one, to an LP optimum of the problem
    before it; so the presolved LP's only optimum is [x] restricted to
    the kept elements. Adding [x ≤ 1] rows keeps that point the only
    optimum, so the root relaxation is integral and the search stops
    there. The margin keeps that optimum unique beyond the primal's
    1e-9 tolerances, so its simplex lands on the same vertex.

    The certificate does not depend on the pivot path. What it proves
    (the program's unique 0/1 optimum, equal to its LP's only optimum)
    is a property of the program, not of the basis it was read at, so
    a resumed solve that certifies returns the same set as a cold one
    on the whole program,
    and as the presolve + {!Ilp.solve} path. Only whether it certifies
    can depend on the path: at a degenerate optimum one basis may show
    the blocking row and another not. A decline therefore needs no
    second, cold attempt: the caller's fallback answers.

    It declines on tied optima (a flat column no row blocks), on a
    fractional optimum, and after [4 (n + m) + 64] pivots in this call,
    for [n] columns and [m] rows. Raises [Cdw_util.Timing.Timeout] when
    [deadline], checked every 64 pivots starting with the first, has
    passed. *)

val solve_cover_unique :
  ?deadline:float -> weights:float array -> int array array -> bool array option
(** Test-only: [?deadline] (default none) lets a hitting-set test check
    the certificate's timeout.

    [solve_cover_unique ~weights sets] is {!cover_solve} on a fresh
    state given every weight, then every set: [Some x] only when [x] is
    the unique optimum of the 0/1 covering program over [sets], with
    elements in [0, n). The first call starts from the all-surplus
    basis, which is dual-feasible because [w ≥ 0], so there are no
    artificials, no phase 1 and no [x ≤ 1] rows. The pivot rules are
    every {!cover_solve}'s: the leaving row has the most negative basic
    value (the first row on ties), and the entering column passes the
    dual ratio test (on ties, the column added first; a row's surplus
    column is added with the row). Here every structural column comes
    before every surplus one, so this is the cold dual simplex on the
    whole program, pivot for pivot. *)

val cover_pivots : unit -> int
(** Test-only: the work gate bounds the dual pivots of a fixed lazy
    script. Dual-simplex pivots of every {!cover_solve} (and so
    {!solve_cover_unique}) that returned, across domains. *)

val cover_declines : unit -> int
(** Test-only: the multicut differential bounds how often the warm
    loop falls back. {!cover_solve} calls that returned [None], across
    domains. *)

val feasible_value : problem -> float array -> bool
(** Check a point against all constraints (tolerance 1e-6); used by the
    property tests. *)
