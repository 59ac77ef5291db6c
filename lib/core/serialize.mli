(** Plain-text workflow files.

    Line-oriented format, one declaration per line ([#] starts a
    comment):

    {v user      <name>
   algorithm <name>
   purpose   <name> [weight <float>]
   edge      <src-name> <dst-name> [value <float>]
   constraint <user-name> <purpose-name> v}

    [value] is the initial valuation of a user out-edge. Names are
    whitespace-free tokens. Declarations may appear in any order as long
    as vertices precede the edges and constraints using them. *)

val to_string : ?constraints:Constraint_set.t -> Workflow.t -> string
(** Serialises the live graph; removed edges are omitted. *)

val parse : string -> (Workflow.t * Constraint_set.t, string) result
(** Error messages carry 1-based line numbers. *)

val parse_exn : string -> Workflow.t * Constraint_set.t

val to_json : ?constraints:Constraint_set.t -> Workflow.t -> string
(** Test-only: the JSON round-trip tests call the codec directly;
    {!save}/{!load} dispatch to it.

    JSON interchange form:
    {v { "vertices":    [{"name", "kind", "weight"?}],
     "edges":       [{"src", "dst", "value"?}],
     "constraints": [{"source", "target"}] } v} *)

val of_json : string -> (Workflow.t * Constraint_set.t, string) result
(** Test-only: the JSON round-trip tests call the codec directly;
    {!save}/{!load} dispatch to it. *)

val load : string -> (Workflow.t * Constraint_set.t, string) result
(** Read and parse a file; a [.json] extension selects the JSON
    format. *)

val save : ?constraints:Constraint_set.t -> string -> Workflow.t -> unit
(** Write a file; a [.json] extension selects the JSON format. *)

val to_dot : ?constraints:Constraint_set.t -> Workflow.t -> string
(** Graphviz rendering: users as boxes, algorithms as ellipses, purposes
    as double octagons; edges labelled with their valuation π. *)
