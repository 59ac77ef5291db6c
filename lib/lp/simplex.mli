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
    path constraints), well within dense-tableau territory. *)

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

val feasible_value : problem -> float array -> bool
(** Check a point against all constraints (tolerance 1e-6); used by the
    property tests. *)
