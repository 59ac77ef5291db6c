let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c -> if c = '"' then Buffer.add_string buf "\\\"" else Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_dot ?(vertex_label = string_of_int) ?(vertex_attrs = fun _ -> [])
    ?(edge_label = fun _ -> "") g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph \"workflow\" {\n";
  Buffer.add_string buf "  rankdir=LR;\n";
  Digraph.iter_vertices
    (fun v ->
      let attrs =
        ("label", vertex_label v) :: vertex_attrs v
        |> List.map (fun (k, value) -> Printf.sprintf "%s=\"%s\"" k (escape value))
        |> String.concat ", "
      in
      Buffer.add_string buf (Printf.sprintf "  n%d [%s];\n" v attrs))
    g;
  for id = 0 to Digraph.n_edges_total g - 1 do
    let e = Digraph.edge g id in
    if not (Digraph.edge_removed g e) then begin
      let label = edge_label e in
      let label_attr =
        if label = "" then "" else Printf.sprintf " label=\"%s\"" (escape label)
      in
      Buffer.add_string buf
        (Printf.sprintf "  n%d -> n%d [%s];\n" (Digraph.edge_src e)
           (Digraph.edge_dst e) label_attr)
    end
  done;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
