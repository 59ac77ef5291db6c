(* Structural diff between two bases of one evolving workflow.

   Vertex and edge ids are representation details that shift across a
   thaw → mutate → re-freeze cycle; the stable identity of a vertex is
   its name, and of an edge the (src-name, dst-name) pair — the same
   identities snapshot format 2.0 uses to make session state portable.
   The diff is therefore computed entirely in name space, and it is the
   diff (not the raw bases) that migration consults to decide which
   sessions a new epoch can leave untouched. *)

module Digraph = Cdw_graph.Digraph

type t = {
  added_vertices : string list;
  removed_vertices : string list;
      (* includes names whose kind changed: old and new vertex are not
         the same entity, so both sides of the rename show up *)
  added_edges : (string * string) list;
  removed_edges : (string * string) list;
  repriced_edges : (string * string) list;
      (* present in both bases with a different initial valuation *)
  reweighted_purposes : string list;
      (* purposes present in both bases with a different weight *)
}

let is_empty d =
  d.added_vertices = [] && d.removed_vertices = [] && d.added_edges = []
  && d.removed_edges = [] && d.repriced_edges = [] && d.reweighted_purposes = []

(* The vertex of [wf] that is the *same entity* as vertex [v] of
   [other]: same name, same kind. A name that changed kind is treated
   as removed-and-added. *)
let counterpart ~of_:wf other v =
  match Workflow.vertex_of_name wf (Workflow.name other v) with
  | Some v' when Workflow.kind wf v' = Workflow.kind other v -> Some v'
  | Some _ | None -> None

let edge_names wf e =
  (Workflow.name wf (Digraph.edge_src e), Workflow.name wf (Digraph.edge_dst e))

let compute ~old_base ~new_base =
  let removed_vertices = ref [] and added_vertices = ref [] in
  Digraph.iter_vertices
    (fun v ->
      if counterpart ~of_:new_base old_base v = None then
        removed_vertices := Workflow.name old_base v :: !removed_vertices)
    (Workflow.graph old_base);
  Digraph.iter_vertices
    (fun v ->
      if counterpart ~of_:old_base new_base v = None then
        added_vertices := Workflow.name new_base v :: !added_vertices)
    (Workflow.graph new_base);
  let removed_edges = ref []
  and added_edges = ref []
  and repriced_edges = ref [] in
  Digraph.iter_edges
    (fun e ->
      let u = Digraph.edge_src e and v = Digraph.edge_dst e in
      match
        (counterpart ~of_:new_base old_base u, counterpart ~of_:new_base old_base v)
      with
      | Some u', Some v' -> (
          match Digraph.find_edge (Workflow.graph new_base) u' v' with
          | Some e' ->
              if
                Workflow.initial_value old_base e
                <> Workflow.initial_value new_base e'
              then repriced_edges := edge_names old_base e :: !repriced_edges
          | None -> removed_edges := edge_names old_base e :: !removed_edges)
      | _ -> removed_edges := edge_names old_base e :: !removed_edges)
    (Workflow.graph old_base);
  Digraph.iter_edges
    (fun e ->
      let u = Digraph.edge_src e and v = Digraph.edge_dst e in
      let gone =
        match
          ( counterpart ~of_:old_base new_base u,
            counterpart ~of_:old_base new_base v )
        with
        | Some u', Some v' ->
            Digraph.find_edge (Workflow.graph old_base) u' v' = None
        | _ -> true
      in
      if gone then added_edges := edge_names new_base e :: !added_edges)
    (Workflow.graph new_base);
  let reweighted_purposes =
    List.filter_map
      (fun p ->
        match counterpart ~of_:new_base old_base p with
        | Some p'
          when Workflow.purpose_weight old_base p
               <> Workflow.purpose_weight new_base p' ->
            Some (Workflow.name old_base p)
        | Some _ | None -> None)
      (Workflow.purposes old_base)
  in
  {
    added_vertices = List.rev !added_vertices;
    removed_vertices = List.rev !removed_vertices;
    added_edges = List.rev !added_edges;
    removed_edges = List.rev !removed_edges;
    repriced_edges = List.rev !repriced_edges;
    reweighted_purposes;
  }
