module Digraph = Cdw_graph.Digraph

let eps = 1e-9

type t = {
  n : int;
  dst : int array; (* arc -> head vertex *)
  res : float array; (* arc -> residual capacity *)
  adj : int list array; (* vertex -> arc indices *)
}

let of_digraph g ~capacity =
  let n = Digraph.n_vertices g in
  let m = Digraph.n_edges g in
  let dst = Array.make (2 * m) 0 in
  let res = Array.make (2 * m) 0.0 in
  let adj = Array.make n [] in
  let next = ref 0 in
  Digraph.iter_edges
    (fun e ->
      let c = capacity e in
      if c < 0.0 then invalid_arg "Flow_net: negative capacity";
      let a = !next in
      next := a + 2;
      dst.(a) <- Digraph.edge_dst e;
      res.(a) <- c;
      dst.(a + 1) <- Digraph.edge_src e;
      res.(a + 1) <- 0.0;
      adj.(Digraph.edge_src e) <- a :: adj.(Digraph.edge_src e);
      adj.(Digraph.edge_dst e) <- (a + 1) :: adj.(Digraph.edge_dst e))
    g;
  { n; dst; res; adj }

let n_vertices t = t.n
let arc_dst t a = t.dst.(a)
let residual t a = t.res.(a)

let push t a f =
  t.res.(a) <- t.res.(a) -. f;
  t.res.(a lxor 1) <- t.res.(a lxor 1) +. f

let arcs_from t v = t.adj.(v)
