(** Fixed-width bitsets over [0, capacity).

    Used for per-vertex purpose-reachability sets: thousands of vertices
    each holding a set over a few hundred purposes, where hash sets would
    be too slow and lists too large. *)

type t

val create : int -> t
(** [create capacity] is the empty set over universe [0, capacity). *)

val mem : t -> int -> bool

val add : t -> int -> unit

val remove : t -> int -> unit
(** Test-only: the frozen presolve (test/presolve_reference.ml) runs on it. *)

val union_into : t -> t -> unit
(** [union_into dst src] sets [dst := dst ∪ src]. The two sets must have
    the same capacity. *)

val masked_subset : t -> t -> mask:t -> bool
(** Test-only: the frozen presolve (test/presolve_reference.ml) runs on it.

    [masked_subset a b ~mask]: is [a ∩ mask ⊆ b ∩ mask]? All three must
    share a capacity. *)

val masked_cardinal : t -> mask:t -> int
(** Test-only: the frozen presolve (test/presolve_reference.ml) runs on it. [|a ∩ mask|]. *)

val masked_choose : t -> mask:t -> int option
(** Test-only: the frozen presolve (test/presolve_reference.ml) runs on it. Smallest member of [a ∩ mask]. *)

val cardinal : t -> int

val iter : (int -> unit) -> t -> unit
(** Iterate set members in increasing order. *)

val to_list : t -> int list
(** Test-only: the frozen presolve (test/presolve_reference.ml) runs on it. *)
