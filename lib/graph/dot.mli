(** Graphviz DOT export, for inspecting workflows and solutions. *)

val to_dot :
  ?vertex_label:(int -> string) ->
  ?vertex_attrs:(int -> (string * string) list) ->
  ?edge_label:(Digraph.edge -> string) ->
  Digraph.t ->
  string
(** Render the graph's live edges; removed edges are omitted. *)
