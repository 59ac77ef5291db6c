module Digraph = Cdw_graph.Digraph
module Topo = Cdw_graph.Topo
module Vec = Cdw_util.Vec

type kind = User | Algorithm | Purpose

let pp_kind ppf = function
  | User -> Format.pp_print_string ppf "user"
  | Algorithm -> Format.pp_print_string ppf "algorithm"
  | Purpose -> Format.pp_print_string ppf "purpose"

type t = {
  graph : Digraph.t;
  kinds : kind Vec.t;
  names : string Vec.t;
  name_index : (string, int) Hashtbl.t;
  weights : float Vec.t; (* per vertex; w_p for purposes, 1.0 elsewhere *)
  init_values : float Vec.t; (* per edge id *)
}

let create () =
  {
    graph = Digraph.create ();
    kinds = Vec.create ();
    names = Vec.create ();
    name_index = Hashtbl.create 64;
    weights = Vec.create ();
    init_values = Vec.create ();
  }

let graph t = t.graph

let add_named t kind name weight =
  (match Hashtbl.find_opt t.name_index name with
  | Some _ -> invalid_arg (Printf.sprintf "Workflow: duplicate name %S" name)
  | None -> ());
  let v = Digraph.add_vertex t.graph in
  Vec.push t.kinds kind;
  Vec.push t.names name;
  Vec.push t.weights weight;
  Hashtbl.add t.name_index name v;
  v

let default_name t prefix = Printf.sprintf "%s%d" prefix (Vec.length t.names)

let add_user ?name t =
  let name = match name with Some n -> n | None -> default_name t "user" in
  add_named t User name 1.0

let add_algorithm ?name t =
  let name = match name with Some n -> n | None -> default_name t "alg" in
  add_named t Algorithm name 1.0

let add_purpose ?name ?(weight = 1.0) t =
  if weight < 0.0 then invalid_arg "Workflow.add_purpose: negative weight";
  let name = match name with Some n -> n | None -> default_name t "purpose" in
  add_named t Purpose name weight

let kind t v = Vec.get t.kinds v
let name t v = Vec.get t.names v
let vertex_of_name t n = Hashtbl.find_opt t.name_index n

let purpose_weight t v =
  match kind t v with
  | Purpose -> Vec.get t.weights v
  | User | Algorithm ->
      invalid_arg
        (Printf.sprintf "Workflow.purpose_weight: %s is not a purpose" (name t v))

let connect ?(value = 1.0) t u v =
  if value < 0.0 then invalid_arg "Workflow.connect: negative value";
  (match kind t u with
  | Purpose ->
      invalid_arg
        (Printf.sprintf "Workflow.connect: purpose %s cannot be a source"
           (name t u))
  | User | Algorithm -> ());
  (match kind t v with
  | User ->
      invalid_arg
        (Printf.sprintf "Workflow.connect: user %s cannot be a target"
           (name t v))
  | Algorithm | Purpose -> ());
  let e = Digraph.add_edge t.graph u v in
  let id = Digraph.edge_id e in
  while Vec.length t.init_values <= id do Vec.push t.init_values 1.0 done;
  Vec.set t.init_values id value;
  e

let initial_value t e =
  let id = Digraph.edge_id e in
  if id < Vec.length t.init_values then Vec.get t.init_values id else 1.0

let vertices_of_kind t k =
  let acc = ref [] in
  Digraph.iter_vertices
    (fun v -> if Vec.get t.kinds v = k then acc := v :: !acc)
    t.graph;
  List.rev !acc

let users t = vertices_of_kind t User
let algorithms t = vertices_of_kind t Algorithm
let purposes t = vertices_of_kind t Purpose
let n_vertices t = Digraph.n_vertices t.graph
let n_edges t = Digraph.n_edges t.graph

let copy t =
  if Digraph.is_view t.graph then
    (* View-backed workflows are structurally immutable: [add_named] and
       [connect] both hit the underlying graph first, which raises on
       views before any metadata is touched. Sharing the metadata
       vectors is therefore safe, and the copy reduces to an O(E/8)
       removal-mask copy. *)
    { t with graph = Digraph.copy t.graph }
  else
    {
      graph = Digraph.copy t.graph;
      kinds = Vec.copy t.kinds;
      names = Vec.copy t.names;
      name_index = Hashtbl.copy t.name_index;
      weights = Vec.copy t.weights;
      init_values = Vec.copy t.init_values;
    }

let is_frozen t = Digraph.is_view t.graph

(* Freezing a builder deep-copies the metadata: the result is the
   private base of a shared index, and must not alias vectors the
   caller might keep growing through the original builder workflow. A
   view-backed workflow's metadata can no longer grow (see [copy]), so
   re-freezing one shares it, and with it the base: N engines over one
   frozen workflow hold one copy of names, weights and CSR arrays. *)
let freeze ?epoch t =
  if Digraph.is_view t.graph then
    { t with graph = Digraph.view (Digraph.freeze ?epoch t.graph) }
  else
    {
      graph = Digraph.view (Digraph.freeze ?epoch t.graph);
      kinds = Vec.copy t.kinds;
      names = Vec.copy t.names;
      name_index = Hashtbl.copy t.name_index;
      weights = Vec.copy t.weights;
      init_values = Vec.copy t.init_values;
    }

let epoch t =
  match Digraph.frozen_base t.graph with
  | Some f -> Cdw_graph.Digraph.Frozen.epoch f
  | None -> 0

let thaw t =
  {
    graph = Digraph.thaw t.graph;
    kinds = Vec.copy t.kinds;
    names = Vec.copy t.names;
    name_index = Hashtbl.copy t.name_index;
    weights = Vec.copy t.weights;
    init_values = Vec.copy t.init_values;
  }

let validate t =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  if not (Topo.is_dag t.graph) then
    List.iter
      (fun component ->
        err "cycle through {%s}"
          (String.concat ", " (List.map (fun v -> Vec.get t.names v) component)))
      (Cdw_graph.Scc.cyclic_components t.graph);
  Digraph.iter_vertices
    (fun v ->
      let ins = Digraph.in_degree t.graph v in
      let outs = Digraph.out_degree t.graph v in
      match kind t v with
      | User ->
          if ins > 0 then err "user %s has incoming edges" (name t v);
          if outs = 0 then err "user %s has no outgoing edge" (name t v)
      | Algorithm ->
          if ins = 0 then err "algorithm %s has no incoming edge" (name t v);
          if outs = 0 then err "algorithm %s has no outgoing edge" (name t v)
      | Purpose ->
          if outs > 0 then err "purpose %s has outgoing edges" (name t v);
          if ins = 0 then err "purpose %s has no incoming edge" (name t v))
    t.graph;
  match !errors with [] -> Ok () | es -> Error (List.rev es)

let pp ppf t =
  Format.fprintf ppf "workflow: %d users, %d algorithms, %d purposes, %d edges"
    (List.length (users t))
    (List.length (algorithms t))
    (List.length (purposes t))
    (n_edges t)
