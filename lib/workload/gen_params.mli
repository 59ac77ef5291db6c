(** Synthetic-workload parameters (§7.1, Table 2).

    A workload is a layered DAG: [stages] workflow stages whose widths
    follow [distribution]; stage 0 holds the user vertices, the last
    stage the purposes, everything between algorithms. Every s→t path
    then has exactly [stages] vertices, the paper's path length [k]. *)

type distribution =
  | Non_uniform  (** the paper's NU = (50%, 25%, 10%, 10%, 5%) for k = 5;
                     generalised to halving shares for other k *)
  | Uniform  (** equal shares *)

type t = {
  n_constraints : int;  (** |N| *)
  n_vertices : int;  (** |V| *)
  stages : int;  (** path length k ≥ 2 *)
  distribution : distribution;  (** X_k *)
  density : float;  (** minimum density d between consecutive stages *)
  value_lo : int;
  value_hi : int;  (** initial valuations drawn uniformly from [lo, hi] *)
}

val default : t
(** Dataset 1a: |N| free (set by the sweep), 100 vertices, k = 5, NU,
    d = 0, values 1–100. *)

val dataset1a : n_constraints:int -> t
val dataset1b : n_constraints:int -> t
(** 1000 vertices, otherwise as 1a. *)

val dataset1c : n_constraints:int -> t
(** 100 vertices, uniform distribution, d = 20%. *)

val dataset2_base : t
(** 150 vertices, k = 3, uniform, d = 0, |N| = 10 — the starting point of
    the path-lengthening procedure (see {!Dataset2}). *)

val dataset3 : n_vertices:int -> t
(** |N| = 5, k = 5, NU, d = 0, sizes 100–10000 (Table 2). *)

val stage_widths : t -> int array
(** Vertex count per stage: follows the distribution, forced ≥ 1 per
    stage, and summing to [n_vertices]. *)

val validate : t -> (unit, string) result
