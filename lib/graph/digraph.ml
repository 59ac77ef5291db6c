module Vec = Cdw_util.Vec

(* Edge handles are immutable descriptors shared by every representation
   of one graph family: the builder that allocated them, the frozen
   snapshot built from it, and every view of that snapshot. Removal
   state lives in the owning graph's bitset, never in the handle. *)
type edge = { id : int; src : int; dst : int }

let edge_id e = e.id
let edge_src e = e.src
let edge_dst e = e.dst
let pp_edge ppf e = Format.fprintf ppf "%d->%d#%d" e.src e.dst e.id

(* ---------------------------------------------------------------- *)
(* Removed-edge bitsets (one bit per edge id).                        *)

let bit_mem bits id =
  Char.code (Bytes.unsafe_get bits (id lsr 3)) land (1 lsl (id land 7)) <> 0

let bit_set bits id =
  let i = id lsr 3 in
  Bytes.unsafe_set bits i
    (Char.chr (Char.code (Bytes.unsafe_get bits i) lor (1 lsl (id land 7))))

let bit_clear bits id =
  let i = id lsr 3 in
  Bytes.unsafe_set bits i
    (Char.chr (Char.code (Bytes.unsafe_get bits i) land lnot (1 lsl (id land 7))))

let mask_bytes m = (m + 7) lsr 3

(* ---------------------------------------------------------------- *)
(* Mutable builder: the construction-time representation.             *)

type builder = {
  mutable n : int;
  edges : edge Vec.t;
  out_adj : edge Vec.t Vec.t; (* indexed by vertex; includes removed edges *)
  in_adj : edge Vec.t Vec.t;
  pair_index : (int * int, edge) Hashtbl.t;
      (* (src, dst) -> edge, live or removed: O(1) duplicate detection in
         [add_edge] instead of an O(out-degree) scan *)
  mutable removed : Bytes.t; (* grown geometrically with the edge count *)
  mutable live : int;
}

(* ---------------------------------------------------------------- *)
(* Frozen CSR snapshot: immutable int arrays, safe to share across
   domains. Built once per base workflow; row order is edge-id order,
   which equals builder insertion order, so every traversal visits
   edges in exactly the order the builder representation would. *)

module Frozen = struct
  type t = {
    fn : int;
    fedges : edge array; (* by id *)
    out_off : int array; (* vertex -> first slot in [out_eid] *)
    out_eid : int array; (* CSR slots: edge ids, ascending per row *)
    in_off : int array;
    in_eid : int array;
    base_removed : Bytes.t; (* removal mask at freeze time; never mutated *)
    base_live : int;
    epoch : int;
        (* position in the base's evolution chain: 0 for a process's
           first freeze, bumped by each live re-freeze (see
           [Workflow.freeze] and the engine's epoch installation) *)
    topo_hint : int array option;
        (* a topological order of the freeze-time live graph, or [None]
           if it was cyclic. Valid for any view that has only removed
           edges relative to the base (removal preserves topological
           orders); views that restore base-removed edges fall back to
           a fresh Kahn sort. *)
  }

  let n_vertices t = t.fn
  let n_edges_total t = Array.length t.fedges
  let n_edges t = t.base_live
  let epoch t = t.epoch
end

(* A view: one frozen base plus a private removal mask. O(E/8) to
   create, O(1) to toggle an edge, O(E/8) to copy. [base_restored] is
   set once the view restores an edge the base had removed; it only
   gates the frozen topo-order fast path. *)
type view = {
  frozen : Frozen.t;
  vremoved : Bytes.t;
  mutable vlive : int;
  mutable base_restored : bool;
}

type t = Builder of builder | View of view

let repr_name = function Builder _ -> "builder" | View _ -> "view"
let is_view = function Builder _ -> false | View _ -> true

let frozen_base = function Builder _ -> None | View v -> Some v.frozen

(* ---------------------------------------------------------------- *)
(* Construction (builder only)                                        *)

let create () =
  Builder
    {
      n = 0;
      edges = Vec.create ();
      out_adj = Vec.create ();
      in_adj = Vec.create ();
      pair_index = Hashtbl.create 64;
      removed = Bytes.make 16 '\000';
      live = 0;
    }

let builder_exn op = function
  | Builder b -> b
  | View _ -> invalid_arg (Printf.sprintf "Digraph.%s: graph is a frozen view" op)

let add_vertex g =
  let b = builder_exn "add_vertex" g in
  let v = b.n in
  b.n <- b.n + 1;
  Vec.push b.out_adj (Vec.create ());
  Vec.push b.in_adj (Vec.create ());
  v

let add_vertices g k =
  if k <= 0 then invalid_arg "Digraph.add_vertices: k must be positive";
  let first = add_vertex g in
  for _ = 2 to k do ignore (add_vertex g) done;
  first

let n_vertices = function Builder b -> b.n | View v -> v.frozen.Frozen.fn

let check_vertex g v =
  if v < 0 || v >= n_vertices g then
    invalid_arg (Printf.sprintf "Digraph: unknown vertex %d" v)

let n_edges_total = function
  | Builder b -> Vec.length b.edges
  | View v -> Array.length v.frozen.Frozen.fedges

let n_edges = function Builder b -> b.live | View v -> v.vlive

let removed_mask = function
  | Builder b -> b.removed
  | View v -> v.vremoved

let edge_removed g e = bit_mem (removed_mask g) e.id

let ensure_mask_capacity b m =
  if mask_bytes m > Bytes.length b.removed then begin
    let bigger = Bytes.make (max (2 * Bytes.length b.removed) (mask_bytes m)) '\000' in
    Bytes.blit b.removed 0 bigger 0 (Bytes.length b.removed);
    b.removed <- bigger
  end

let add_edge g u v =
  let b = builder_exn "add_edge" g in
  check_vertex g u;
  check_vertex g v;
  if u = v then invalid_arg "Digraph.add_edge: self-loop";
  match Hashtbl.find_opt b.pair_index (u, v) with
  | Some e when not (bit_mem b.removed e.id) ->
      invalid_arg (Printf.sprintf "Digraph.add_edge: duplicate %d->%d" u v)
  | Some e ->
      bit_clear b.removed e.id;
      b.live <- b.live + 1;
      e
  | None ->
      let e = { id = Vec.length b.edges; src = u; dst = v } in
      ensure_mask_capacity b (e.id + 1);
      Vec.push b.edges e;
      Vec.push (Vec.get b.out_adj u) e;
      Vec.push (Vec.get b.in_adj v) e;
      Hashtbl.add b.pair_index (u, v) e;
      b.live <- b.live + 1;
      e

let edge g id =
  if id < 0 || id >= n_edges_total g then
    invalid_arg (Printf.sprintf "Digraph.edge: unknown edge id %d" id);
  match g with
  | Builder b -> Vec.get b.edges id
  | View v -> v.frozen.Frozen.fedges.(id)

let remove_edge g e =
  match g with
  | Builder b ->
      if not (bit_mem b.removed e.id) then begin
        bit_set b.removed e.id;
        b.live <- b.live - 1
      end
  | View v ->
      if not (bit_mem v.vremoved e.id) then begin
        bit_set v.vremoved e.id;
        v.vlive <- v.vlive - 1
      end

let restore_edge g e =
  match g with
  | Builder b ->
      if bit_mem b.removed e.id then begin
        bit_clear b.removed e.id;
        b.live <- b.live + 1
      end
  | View v ->
      if bit_mem v.vremoved e.id then begin
        bit_clear v.vremoved e.id;
        v.vlive <- v.vlive + 1;
        if bit_mem v.frozen.Frozen.base_removed e.id then
          v.base_restored <- true
      end

let find_edge g u v =
  check_vertex g u;
  check_vertex g v;
  match g with
  | Builder b -> (
      match Hashtbl.find_opt b.pair_index (u, v) with
      | Some e when not (bit_mem b.removed e.id) -> Some e
      | _ -> None)
  | View w ->
      let f = w.frozen in
      let lo = f.Frozen.out_off.(u) and hi = f.Frozen.out_off.(u + 1) in
      let rec loop i =
        if i >= hi then None
        else
          let e = f.Frozen.fedges.(f.Frozen.out_eid.(i)) in
          if e.dst = v && not (bit_mem w.vremoved e.id) then Some e
          else loop (i + 1)
      in
      loop lo

(* ---------------------------------------------------------------- *)
(* Allocation-free adjacency iteration. Liveness is checked when each
   edge is visited, so callbacks may remove the edge they are handed
   (the cascade pattern) without disturbing the traversal. *)

let iter_out g v f =
  check_vertex g v;
  match g with
  | Builder b ->
      let adj = Vec.get b.out_adj v in
      for i = 0 to Vec.length adj - 1 do
        let e = Vec.get adj i in
        if not (bit_mem b.removed e.id) then f e
      done
  | View w ->
      let fr = w.frozen in
      for i = fr.Frozen.out_off.(v) to fr.Frozen.out_off.(v + 1) - 1 do
        let id = fr.Frozen.out_eid.(i) in
        if not (bit_mem w.vremoved id) then f fr.Frozen.fedges.(id)
      done

let iter_in g v f =
  check_vertex g v;
  match g with
  | Builder b ->
      let adj = Vec.get b.in_adj v in
      for i = 0 to Vec.length adj - 1 do
        let e = Vec.get adj i in
        if not (bit_mem b.removed e.id) then f e
      done
  | View w ->
      let fr = w.frozen in
      for i = fr.Frozen.in_off.(v) to fr.Frozen.in_off.(v + 1) - 1 do
        let id = fr.Frozen.in_eid.(i) in
        if not (bit_mem w.vremoved id) then f fr.Frozen.fedges.(id)
      done

let fold_out g v f acc =
  let acc = ref acc in
  iter_out g v (fun e -> acc := f !acc e);
  !acc

let fold_in g v f acc =
  let acc = ref acc in
  iter_in g v (fun e -> acc := f !acc e);
  !acc

let out_edges g v = List.rev (fold_out g v (fun acc e -> e :: acc) [])
let in_edges g v = List.rev (fold_in g v (fun acc e -> e :: acc) [])
let out_degree g v = fold_out g v (fun acc _ -> acc + 1) 0
let in_degree g v = fold_in g v (fun acc _ -> acc + 1) 0

let iter_edges f g =
  match g with
  | Builder b -> Vec.iter (fun e -> if not (bit_mem b.removed e.id) then f e) b.edges
  | View v ->
      Array.iter
        (fun e -> if not (bit_mem v.vremoved e.id) then f e)
        v.frozen.Frozen.fedges

let fold_edges f acc g =
  let acc = ref acc in
  iter_edges (fun e -> acc := f !acc e) g;
  !acc

let iter_vertices f g = for v = 0 to n_vertices g - 1 do f v done

let removed_edge_ids g =
  let mask = removed_mask g in
  let m = n_edges_total g in
  let acc = ref [] in
  for id = m - 1 downto 0 do
    if bit_mem mask id then acc := id :: !acc
  done;
  !acc

(* ---------------------------------------------------------------- *)
(* Freezing                                                           *)

(* Kahn's algorithm over the live edge set, used to precompute the topo
   hint at freeze time (a copy of Topo.sort, which cannot be used here
   without a dependency cycle). *)
let topo_hint_of g =
  let n = n_vertices g in
  let indeg = Array.make n 0 in
  iter_edges (fun e -> indeg.(e.dst) <- indeg.(e.dst) + 1) g;
  let queue = Queue.create () in
  for v = 0 to n - 1 do if indeg.(v) = 0 then Queue.add v queue done;
  let order = Array.make n (-1) in
  let filled = ref 0 in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    order.(!filled) <- v;
    incr filled;
    iter_out g v (fun e ->
        indeg.(e.dst) <- indeg.(e.dst) - 1;
        if indeg.(e.dst) = 0 then Queue.add e.dst queue)
  done;
  if !filled = n then Some order else None

let freeze ?epoch g =
  match g with
  | View v
    when (epoch = None || epoch = Some v.frozen.Frozen.epoch)
         && (not v.base_restored)
         && Bytes.equal v.vremoved v.frozen.Frozen.base_removed ->
      (* A view still on its base's mask rebases to a record equal to
         that base field for field: share the base itself. *)
      v.frozen
  | View v ->
      (* Rebase: same CSR structure, the view's current mask becomes the
         new base. O(E/8). The epoch carries over unless the caller is
         installing a new one. *)
      {
        v.frozen with
        Frozen.base_removed = Bytes.copy v.vremoved;
        base_live = v.vlive;
        epoch = Option.value epoch ~default:v.frozen.Frozen.epoch;
        topo_hint =
          (if v.base_restored then topo_hint_of g else v.frozen.Frozen.topo_hint);
      }
  | Builder b ->
      let n = b.n in
      let m = Vec.length b.edges in
      let fedges = Vec.to_array b.edges in
      let out_off = Array.make (n + 1) 0 in
      let in_off = Array.make (n + 1) 0 in
      Array.iter
        (fun e ->
          out_off.(e.src + 1) <- out_off.(e.src + 1) + 1;
          in_off.(e.dst + 1) <- in_off.(e.dst + 1) + 1)
        fedges;
      for v = 0 to n - 1 do
        out_off.(v + 1) <- out_off.(v + 1) + out_off.(v);
        in_off.(v + 1) <- in_off.(v + 1) + in_off.(v)
      done;
      let out_eid = Array.make m 0 in
      let in_eid = Array.make m 0 in
      let out_cursor = Array.copy out_off in
      let in_cursor = Array.copy in_off in
      (* Edge-id order fills every CSR row in builder insertion order, so
         frozen traversals replay builder traversals exactly. *)
      Array.iter
        (fun e ->
          out_eid.(out_cursor.(e.src)) <- e.id;
          out_cursor.(e.src) <- out_cursor.(e.src) + 1;
          in_eid.(in_cursor.(e.dst)) <- e.id;
          in_cursor.(e.dst) <- in_cursor.(e.dst) + 1)
        fedges;
      let base_removed = Bytes.make (mask_bytes m) '\000' in
      Bytes.blit b.removed 0 base_removed 0 (mask_bytes m);
      {
        Frozen.fn = n;
        fedges;
        out_off;
        out_eid;
        in_off;
        in_eid;
        base_removed;
        base_live = b.live;
        epoch = Option.value epoch ~default:0;
        topo_hint = topo_hint_of g;
      }

let view frozen =
  View
    {
      frozen;
      vremoved = Bytes.copy frozen.Frozen.base_removed;
      vlive = frozen.Frozen.base_live;
      base_restored = false;
    }

(* The frozen topo order, when still valid for this graph's live edge
   set (views that have only removed edges relative to their base). *)
let topo_hint = function
  | Builder _ -> None
  | View v ->
      if v.base_restored then None else v.frozen.Frozen.topo_hint

let copy g =
  match g with
  | View v ->
      (* Structural sharing: the frozen arrays are immutable, only the
         removal mask is private. *)
      View
        {
          frozen = v.frozen;
          vremoved = Bytes.copy v.vremoved;
          vlive = v.vlive;
          base_restored = v.base_restored;
        }
  | Builder b ->
      let g' = create () in
      ignore (if b.n > 0 then add_vertices g' b.n else 0);
      Vec.iter
        (fun e ->
          let e' = add_edge g' e.src e.dst in
          if bit_mem b.removed e.id then remove_edge g' e')
        b.edges;
      g'

let thaw g =
  match g with
  | Builder _ -> copy g
  | View _ ->
      let g' = create () in
      let n = n_vertices g in
      ignore (if n > 0 then add_vertices g' n else 0);
      for id = 0 to n_edges_total g - 1 do
        let e = edge g id in
        let e' = add_edge g' e.src e.dst in
        if edge_removed g e then remove_edge g' e'
      done;
      g'
