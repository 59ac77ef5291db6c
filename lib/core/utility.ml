module Digraph = Cdw_graph.Digraph
module Reach = Cdw_graph.Reach
module Bitset = Cdw_util.Bitset

let live mask id =
  Char.code (Bytes.unsafe_get mask (id lsr 3)) land (1 lsl (id land 7)) = 0

(* The valuation mass on [v]'s live in-edges, in adjacency order. *)
let inflow (c : Digraph.csr) pi v =
  let sum = ref 0.0 in
  for s = c.in_off.(v) to c.in_off.(v + 1) - 1 do
    let id = c.in_eid.(s) in
    if live c.mask id then sum := !sum +. pi.(id)
  done;
  !sum

let per_purpose ?model wf =
  let c = Digraph.csr (Workflow.graph wf) in
  let pi = Valuation.compute ?model wf in
  List.map (fun p -> (p, inflow c pi p)) (Workflow.purposes wf)

let total ?model wf =
  List.fold_left
    (fun acc (p, u) -> acc +. (Workflow.purpose_weight wf p *. u))
    0.0 (per_purpose ?model wf)

let percent ~original value =
  if original = 0.0 then 100.0 else 100.0 *. value /. original

let purpose_mass wf =
  let g = Workflow.graph wf in
  let purposes = Array.of_list (Workflow.purposes wf) in
  let sets = Reach.target_bitsets g ~targets:purposes in
  Array.map
    (fun set ->
      let acc = ref 0.0 in
      Bitset.iter
        (fun i -> acc := !acc +. Workflow.purpose_weight wf purposes.(i))
        set;
      !acc)
    sets

let path_mass wf =
  let g = Workflow.graph wf in
  let c = Digraph.csr g in
  let { Workflow.vertex_kinds; vertex_weights; _ } = Workflow.flat wf in
  let pm = Array.make c.n 0.0 in
  for v = 0 to c.n - 1 do
    match vertex_kinds.(v) with
    | Workflow.Purpose -> pm.(v) <- vertex_weights.(v)
    | Workflow.User | Workflow.Algorithm -> ()
  done;
  let order = Cdw_graph.Topo.sort g in
  (* Reverse topological sweep: pm(v) = own weight + Σ pm(successors),
     which counts every v→purpose path once with its purpose weight. *)
  for pos = Array.length order - 1 downto 0 do
    let v = order.(pos) in
    let acc = ref pm.(v) in
    for s = c.out_off.(v) to c.out_off.(v + 1) - 1 do
      let id = c.out_eid.(s) in
      if live c.mask id then acc := !acc +. pm.(c.edges.(id).dst)
    done;
    pm.(v) <- !acc
  done;
  pm

type weight_scheme = Reachability_mass | Path_count_mass

(* w(e) = π(e) · mass(head e), multiplied into π's own array (removed
   edges keep π = 0) by one pass over each vertex's in-edges, whose
   head is the vertex. *)
let weights_of ?model scheme wf =
  let c = Digraph.csr (Workflow.graph wf) in
  let mass =
    match scheme with
    | Reachability_mass -> purpose_mass wf
    | Path_count_mass -> path_mass wf
  in
  let w = Valuation.compute ?model wf in
  for v = 0 to c.n - 1 do
    for s = c.in_off.(v) to c.in_off.(v + 1) - 1 do
      let id = c.in_eid.(s) in
      if live c.mask id then w.(id) <- w.(id) *. mass.(v)
    done
  done;
  w

(* The linear model's weights on an unmodified base are the same for
   every solve of the epoch: the base memoizes one array per scheme. *)
let cut_weights ?model ?(scheme = Path_count_mass) wf =
  let compute () = weights_of ?model scheme wf in
  match model with
  | Some (Valuation.Subadditive _) -> compute ()
  | None | Some Valuation.Linear_additive -> (
      let slot = match scheme with Reachability_mass -> 0 | Path_count_mass -> 1 in
      match Workflow.base_memo wf ~slot compute with
      | Some w -> w
      | None -> compute ())
