(** Dataset 2: growing path length at constant path count (§7.1).

    The paper starts from a 150-vertex, k = 3 graph and repeatedly adds
    50 vertices "connecting each vertex to the graph with a single
    edge", extending every path while keeping the number of paths
    constant and re-targeting the constraints at the same paths. We
    realise this by *edge subdivision*: each new vertex is spliced into
    an existing live edge (u → v becomes u → x → v), which provably
    preserves the number of s→t paths for every pair while growing their
    length. *)

val base : ?seed:int -> unit -> Generator.t
(** The 150-vertex, k = 3, uniform, d = 0, |N| = 10 starting graph. *)

val lengthen : ?seed:int -> Generator.t -> added:int -> Generator.t
(** Splice [added] fresh algorithm vertices into uniformly chosen live
    edges of a *copy* of the instance. Constraints carry over
    unchanged. *)

val steps : ?seed:int -> n_steps:int -> unit -> Generator.t list
(** Test-only: [?seed] lets the generator tests pin a second series.

    The experiment series: base, then [n_steps] successive additions of
    50 vertices each (|V| = 150, 200, 250, …). *)
