(** The data-processing workflow model (§2.1 of the paper).

    A workflow is a DAG whose vertices are partitioned into user-data
    sources ([User]), processing stages ([Algorithm]) and processing
    goals ([Purpose]). Edges carry the data flow; edges leaving a user
    vertex hold the *initial valuation* from which every downstream
    valuation is derived (Eq. 13), and purpose vertices hold the weight
    [w_p] of Eq. 1.

    Vertices have unique human-readable names; everything else
    identifies vertices and edges by the dense integer ids of the
    underlying {!Cdw_graph.Digraph}. *)

type kind = User | Algorithm | Purpose

val pp_kind : Format.formatter -> kind -> unit

type t

val create : unit -> t

val graph : t -> Cdw_graph.Digraph.t
(** The underlying digraph. Mutating it directly bypasses the model
    invariants; use the builder functions and {!Valuation} instead. *)

(** {1 Building} *)

val add_user : ?name:string -> t -> int

val add_algorithm : ?name:string -> t -> int

val add_purpose : ?name:string -> ?weight:float -> t -> int
(** [weight] is [w_p] (default 1.0, the value used by CDW-LA). *)

val connect : ?value:float -> t -> int -> int -> Cdw_graph.Digraph.edge
(** [connect t u v] adds the edge [u → v]. [value] sets the initial
    valuation and only makes sense when [u] is a user vertex (default
    1.0; must be ≥ 0). Raises [Invalid_argument] when [u] is a purpose,
    [v] is a user, or the edge would duplicate or self-loop. *)

(** {1 Inspection} *)

val kind : t -> int -> kind

val name : t -> int -> string

val vertex_of_name : t -> string -> int option

val purpose_weight : t -> int -> float
(** Raises [Invalid_argument] for non-purpose vertices. *)

val initial_value : t -> Cdw_graph.Digraph.edge -> float
(** The initial valuation of an edge leaving a user vertex (1.0 for
    edges deeper in the workflow, where it is unused). *)

val users : t -> int list
val algorithms : t -> int list
val purposes : t -> int list

val n_vertices : t -> int
val n_edges : t -> int

val copy : t -> t
(** Copy with preserved vertex and edge ids. On a builder-backed
    workflow this deep-copies everything; on a frozen (view-backed)
    workflow it shares the immutable base and metadata and copies only
    the O(E/8) removal mask. *)

val freeze : ?epoch:int -> t -> t
(** Compile the workflow into a frozen representation: the graph becomes
    a fresh view over an immutable CSR snapshot
    ({!Cdw_graph.Digraph.freeze}), and the metadata is deep-copied so
    the result is independent of the original builder. Re-freezing a
    frozen workflow shares its (immutable) metadata and, when its mask
    is still the base's, the snapshot itself. Subsequent
    {!copy} calls on the result (and its copies) share the snapshot.
    Structure-changing builders ([add_user], [connect], ...) raise
    [Invalid_argument] on frozen workflows; [remove]/[restore] of edges
    still work. [epoch] stamps the snapshot's position in a base
    evolution chain (default: carried over from a view-backed input, 0
    from a builder). *)

val epoch : t -> int
(** The frozen base's epoch; 0 for builder-backed workflows. *)

val thaw : t -> t
(** Materialise an independent mutable (builder-backed) workflow with
    the same ids and removal state; inverse boundary of {!freeze}. *)

val is_frozen : t -> bool

val validate : t -> (unit, string list) result
(** Checks the model invariants: the live graph is a DAG; every
    algorithm vertex has at least one in- and one out-edge; every user
    vertex has an out-edge and every purpose vertex an in-edge. *)

val pp : Format.formatter -> t -> unit
(** Short summary: vertex/edge counts per kind. *)
