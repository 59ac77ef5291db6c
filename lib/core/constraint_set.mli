(** User privacy constraints (§2.2).

    A constraint [(s, t)] demands that no directed path connect the user
    vertex [s] to the purpose vertex [t]; the set of constraints is the
    paper's [N]. *)

type pair = { source : int; target : int }

type t = pair list

val make : Workflow.t -> (int * int) list -> (t, string) result
(** Validates that every source is a user vertex, every target a purpose
    vertex, and no pair repeats. *)

val compare_pair : int * int -> int * int -> int
(** The order of polymorphic [compare] on pairs of ints, without its
    generic traversal: by source, then target. *)

val valid_pair : Workflow.t -> int * int -> bool
(** Both ids name vertices, the source a user and the target a purpose.
    A list whose pairs all pass is one {!make} accepts once duplicates
    are removed. *)

val make_exn : Workflow.t -> (int * int) list -> t

val of_names : Workflow.t -> (string * string) list -> (t, string) result

val pairs : t -> (int * int) list

val size : t -> int

val violated : Workflow.t -> t -> pair list
(** Constraints whose endpoints are still connected by a live path. *)

val satisfied : Workflow.t -> t -> bool
(** The workflow is *consented* w.r.t. [t]: no constraint is violated. *)

val pp : Workflow.t -> Format.formatter -> t -> unit
