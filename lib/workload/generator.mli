(** Synthetic workflow generation (§7.1).

    Vertices are distributed over [stages] layers according to the
    distribution vector; a [density] fraction of all possible edges
    between consecutive stages is drawn pseudo-randomly; the graph is
    then repaired so every user/algorithm vertex has an out-edge and
    every algorithm/purpose vertex an in-edge. Initial valuations are
    uniform integers from the configured range, purpose weights are 1
    (CDW-LA), and constraints are [n_constraints] distinct user→purpose
    pairs guaranteed to be connected. *)

type t = {
  workflow : Cdw_core.Workflow.t;
  constraints : Cdw_core.Constraint_set.t;
  stages : int array array;
      (** Test-only: the generator tests check edges run between
          consecutive stages.

          Stage index → vertex ids. *)
}

val generate : ?seed:int -> Gen_params.t -> t
(** Deterministic given [seed] (default 42). Raises [Invalid_argument]
    when the parameters are inconsistent or the graph cannot support the
    requested number of connected constraint pairs. *)

val n_constraint_paths : ?max_paths:int -> t -> int
(** Total number of live s→t paths over all constraints (the x-axis of
    Fig. 7). *)

val mean_constraint_path_length : ?max_paths:int -> t -> float
(** Mean edge-length of those paths (the x-axis of Fig. 8). *)
