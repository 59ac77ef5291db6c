module Digraph = Cdw_graph.Digraph
module Dot = Cdw_graph.Dot

let float_token x =
  (* Shortest representation that round-trips. *)
  let s = Printf.sprintf "%.12g" x in
  s

let to_string ?(constraints = []) wf =
  let buf = Buffer.create 1024 in
  let g = Workflow.graph wf in
  let emit fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  List.iter (fun v -> emit "user %s\n" (Workflow.name wf v)) (Workflow.users wf);
  List.iter
    (fun v -> emit "algorithm %s\n" (Workflow.name wf v))
    (Workflow.algorithms wf);
  List.iter
    (fun v ->
      let w = Workflow.purpose_weight wf v in
      if w = 1.0 then emit "purpose %s\n" (Workflow.name wf v)
      else emit "purpose %s weight %s\n" (Workflow.name wf v) (float_token w))
    (Workflow.purposes wf);
  Digraph.iter_edges
    (fun e ->
      let src = Digraph.edge_src e and dst = Digraph.edge_dst e in
      let value = Workflow.initial_value wf e in
      if Workflow.kind wf src = Workflow.User && value <> 1.0 then
        emit "edge %s %s value %s\n" (Workflow.name wf src)
          (Workflow.name wf dst) (float_token value)
      else emit "edge %s %s\n" (Workflow.name wf src) (Workflow.name wf dst))
    g;
  List.iter
    (fun { Constraint_set.source; target } ->
      emit "constraint %s %s\n" (Workflow.name wf source)
        (Workflow.name wf target))
    constraints;
  Buffer.contents buf

let tokens line =
  match String.index_opt line '#' with
  | Some i -> String.split_on_char ' ' (String.sub line 0 i)
  | None -> String.split_on_char ' ' line

let parse text =
  let wf = Workflow.create () in
  let constraints = ref [] in
  let error lineno fmt =
    Printf.ksprintf (fun s -> Error (Printf.sprintf "line %d: %s" lineno s)) fmt
  in
  let vertex lineno name k =
    match Workflow.vertex_of_name wf name with
    | Some v -> Ok v
    | None -> error lineno "unknown %s %S" k name
  in
  let ( let* ) = Result.bind in
  let parse_float lineno s =
    match float_of_string_opt s with
    | Some f -> Ok f
    | None -> error lineno "bad number %S" s
  in
  let handle lineno line =
    let words = List.filter (fun w -> w <> "") (tokens line) in
    match words with
    | [] -> Ok ()
    | [ "user"; name ] ->
        ignore (Workflow.add_user ~name wf);
        Ok ()
    | [ "algorithm"; name ] ->
        ignore (Workflow.add_algorithm ~name wf);
        Ok ()
    | [ "purpose"; name ] ->
        ignore (Workflow.add_purpose ~name wf);
        Ok ()
    | [ "purpose"; name; "weight"; w ] ->
        let* weight = parse_float lineno w in
        ignore (Workflow.add_purpose ~name ~weight wf);
        Ok ()
    | [ "edge"; src; dst ] ->
        let* u = vertex lineno src "vertex" in
        let* v = vertex lineno dst "vertex" in
        ignore (Workflow.connect wf u v);
        Ok ()
    | [ "edge"; src; dst; "value"; value ] ->
        let* u = vertex lineno src "vertex" in
        let* v = vertex lineno dst "vertex" in
        let* value = parse_float lineno value in
        ignore (Workflow.connect ~value wf u v);
        Ok ()
    | [ "constraint"; src; dst ] ->
        let* s = vertex lineno src "user" in
        let* t = vertex lineno dst "purpose" in
        constraints := (s, t) :: !constraints;
        Ok ()
    | first :: _ -> error lineno "cannot parse declaration starting with %S" first
  in
  let lines = String.split_on_char '\n' text in
  let rec loop lineno = function
    | [] -> (
        match Constraint_set.make wf (List.rev !constraints) with
        | Ok cs -> Ok (wf, cs)
        | Error msg -> Error msg)
    | line :: rest -> (
        match
          try handle lineno line with Invalid_argument msg -> error lineno "%s" msg
        with
        | Ok () -> loop (lineno + 1) rest
        | Error _ as e -> e)
  in
  loop 1 lines

let parse_exn text =
  match parse text with Ok r -> r | Error msg -> failwith msg

module Json = Cdw_util.Json

let to_json ?(constraints = []) wf =
  let g = Workflow.graph wf in
  let vertex v =
    let base =
      [
        ("name", Json.String (Workflow.name wf v));
        ( "kind",
          Json.String
            (Format.asprintf "%a" Workflow.pp_kind (Workflow.kind wf v)) );
      ]
    in
    let weight =
      match Workflow.kind wf v with
      | Workflow.Purpose when Workflow.purpose_weight wf v <> 1.0 ->
          [ ("weight", Json.Number (Workflow.purpose_weight wf v)) ]
      | _ -> []
    in
    Json.Object (base @ weight)
  in
  let vertices = ref [] in
  Digraph.iter_vertices (fun v -> vertices := vertex v :: !vertices) g;
  let edges =
    List.rev
      (Digraph.fold_edges
         (fun acc e ->
           let src = Digraph.edge_src e in
           let base =
             [
               ("src", Json.String (Workflow.name wf src));
               ("dst", Json.String (Workflow.name wf (Digraph.edge_dst e)));
             ]
           in
           let value =
             if
               Workflow.kind wf src = Workflow.User
               && Workflow.initial_value wf e <> 1.0
             then [ ("value", Json.Number (Workflow.initial_value wf e)) ]
             else []
           in
           Json.Object (base @ value) :: acc)
         [] g)
  in
  let constraint_objs =
    List.map
      (fun { Constraint_set.source; target } ->
        Json.Object
          [
            ("source", Json.String (Workflow.name wf source));
            ("target", Json.String (Workflow.name wf target));
          ])
      constraints
  in
  Json.to_string
    (Json.Object
       [
         ("vertices", Json.Array (List.rev !vertices));
         ("edges", Json.Array edges);
         ("constraints", Json.Array constraint_objs);
       ])

let of_json text =
  let ( let* ) = Result.bind in
  let field ?default obj key to_type =
    match Json.member key obj with
    | Some v -> (
        match to_type v with
        | Some x -> Ok x
        | None -> Error (Printf.sprintf "field %S has the wrong type" key))
    | None -> (
        match default with
        | Some d -> Ok d
        | None -> Error (Printf.sprintf "missing field %S" key))
  in
  let* root = Json.parse text in
  let wf = Workflow.create () in
  let* vertices = field root "vertices" Json.to_list in
  let* () =
    List.fold_left
      (fun acc v ->
        let* () = acc in
        let* name = field v "name" Json.to_text in
        let* kind = field v "kind" Json.to_text in
        try
          match kind with
          | "user" ->
              ignore (Workflow.add_user ~name wf);
              Ok ()
          | "algorithm" ->
              ignore (Workflow.add_algorithm ~name wf);
              Ok ()
          | "purpose" ->
              let* weight = field ~default:1.0 v "weight" Json.to_float in
              ignore (Workflow.add_purpose ~name ~weight wf);
              Ok ()
          | other -> Error (Printf.sprintf "unknown vertex kind %S" other)
        with Invalid_argument msg -> Error msg)
      (Ok ()) vertices
  in
  let resolve name =
    match Workflow.vertex_of_name wf name with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "unknown vertex %S" name)
  in
  let* edges = field ~default:[] root "edges" Json.to_list in
  let* () =
    List.fold_left
      (fun acc e ->
        let* () = acc in
        let* src = Result.bind (field e "src" Json.to_text) resolve in
        let* dst = Result.bind (field e "dst" Json.to_text) resolve in
        let* value = field ~default:1.0 e "value" Json.to_float in
        try
          ignore (Workflow.connect ~value wf src dst);
          Ok ()
        with Invalid_argument msg -> Error msg)
      (Ok ()) edges
  in
  let* constraint_objs = field ~default:[] root "constraints" Json.to_list in
  let* pairs =
    List.fold_left
      (fun acc c ->
        let* pairs = acc in
        let* s = Result.bind (field c "source" Json.to_text) resolve in
        let* t = Result.bind (field c "target" Json.to_text) resolve in
        Ok ((s, t) :: pairs))
      (Ok []) constraint_objs
  in
  let* cs = Constraint_set.make wf (List.rev pairs) in
  Ok (wf, cs)

let is_json path = Filename.check_suffix path ".json"

let load path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  if is_json path then of_json text else parse text

let save ?constraints path wf =
  let oc = open_out path in
  output_string oc
    (if is_json path then to_json ?constraints wf
     else to_string ?constraints wf);
  close_out oc

let to_dot ?(constraints = []) wf =
  let g = Workflow.graph wf in
  let pi = Valuation.compute wf in
  let vertex_attrs v =
    match Workflow.kind wf v with
    | Workflow.User -> [ ("shape", "box") ]
    | Workflow.Algorithm -> [ ("shape", "ellipse") ]
    | Workflow.Purpose -> [ ("shape", "doubleoctagon") ]
  in
  let edge_label e = float_token pi.(Digraph.edge_id e) in
  let dot =
    Dot.to_dot ~vertex_label:(Workflow.name wf) ~vertex_attrs ~edge_label g
  in
  match constraints with
  | [] -> dot
  | cs ->
      (* Append constraint pairs as red dotted edges before the brace. *)
      let body = String.sub dot 0 (String.length dot - 2) in
      let buf = Buffer.create (String.length dot + 256) in
      Buffer.add_string buf body;
      List.iter
        (fun { Constraint_set.source; target } ->
          Buffer.add_string buf
            (Printf.sprintf
               "  n%d -> n%d [style=dotted, color=red, constraint=false];\n"
               source target))
        cs;
      Buffer.add_string buf "}\n";
      Buffer.contents buf
