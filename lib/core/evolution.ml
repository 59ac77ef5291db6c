(* Vertex identity across the bases of one evolving workflow.

   Vertex and edge ids are representation details that shift across a
   thaw → mutate → re-freeze cycle; the stable identity of a vertex is
   its name (with its kind) — the same identity snapshot format 2.0
   uses to make session state portable. A name that changed kind is a
   different entity: removed and added, not kept. *)

let counterpart ~of_:wf other v =
  match Workflow.vertex_of_name wf (Workflow.name other v) with
  | Some v' when Workflow.kind wf v' = Workflow.kind other v -> Some v'
  | Some _ | None -> None
