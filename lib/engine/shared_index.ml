module Algorithms = Cdw_core.Algorithms
module Constraint_set = Cdw_core.Constraint_set
module Digraph = Cdw_graph.Digraph
module Evolution = Cdw_core.Evolution
module Paths = Cdw_graph.Paths
module Reach = Cdw_graph.Reach
module Topo = Cdw_graph.Topo
module Trace = Cdw_obs.Trace
module Workflow = Cdw_core.Workflow

type path_entry =
  | Cached of int list list  (* edge ids, in base DFS order *)
  | Overflow  (* more than [max_paths] paths: never cache, enumerate *)

(* A solve's full input within one epoch: the algorithm, the input
   workflow as its cut ids relative to the base (packed, see
   [cuts_key]), and the constraint pairs in the order the solver
   receives them. Order is part of the key because solvers iterate
   constraints in list order: [p; q] and [q; p] can cut differently. *)
type memo_key = {
  algorithm : Algorithms.name;
  cuts : string;
  pairs : Constraint_set.t;
}

(* The default hash stops after ten values, which would chain every
   list sharing a short prefix into one bucket. *)
module Memo = Hashtbl.Make (struct
  type t = memo_key

  let equal = ( = )
  let hash = Hashtbl.hash_param 64 128
end)

(* The epoch-dependent slice of the index: everything derived from one
   frozen base. Installing a new epoch swaps the whole record at once,
   so a reader holding a [derived] value sees one consistent epoch. *)
type derived = {
  base : Workflow.t;
  topo : int array;
  snapshot : Reach.Snapshot.t;
  mutable base_utility : float option;  (* lazy; guarded by [lock] *)
  paths : (int * int, path_entry) Hashtbl.t;
  mutable memo : Algorithms.outcome Memo.t option;
      (* allocated on first insert; guarded by [lock] *)
}

type t = {
  mutable d : derived;
  mutable chain : (int * Evolution.t) list;
      (* (epoch, diff vs the previous epoch), newest first; epoch 0 has
         no diff and no entry *)
  lock : Mutex.t;
  max_paths : int;
  metrics : Metrics.t;
}

let derive wf =
  (* Freezing compiles the workflow into an immutable CSR base; the
     frozen arrays are shared (not copied) by every session view and are
     safe to read from parallel drain domains. *)
  let base = Workflow.freeze wf in
  let g = Workflow.graph base in
  {
    base;
    topo = Topo.sort g;
    snapshot =
      Trace.span "index.snapshot"
        ~args:[ ("repr", Digraph.repr_name g) ]
        (fun () -> Reach.Snapshot.create g);
    base_utility = None;
    paths = Hashtbl.create 256;
    memo = None;
  }

(* Bound on the (source, target) pairs whose path sets are memoized. *)
let max_cached_pairs = 4096

let create ?(max_paths = 200_000) wf =
  {
    d = derive wf;
    chain = [];
    lock = Mutex.create ();
    max_paths;
    metrics = Metrics.create ();
  }

let base t = t.d.base
let metrics t = t.metrics
let topo_order t = t.d.topo
let epoch t = Workflow.epoch t.d.base
let chain t = t.chain

(* Swap in a new base at a drain boundary. The caller (the engine's
   migrate, under its own lock, with no drain in flight) owns the
   quiescence argument; the index lock only protects its own cache
   state. The workflow is frozen with the next epoch number unless the
   caller pins one (replay installs the journaled epoch verbatim). *)
let install ?epoch:e t wf =
  let old_base = t.d.base in
  let next = match e with Some e -> e | None -> Workflow.epoch old_base + 1 in
  let frozen = Workflow.freeze ~epoch:next wf in
  let diff = Evolution.compute ~old_base ~new_base:frozen in
  Mutex.lock t.lock;
  t.d <- derive frozen;
  t.chain <- (next, diff) :: t.chain;
  Mutex.unlock t.lock;
  Metrics.incr t.metrics "index.installs";
  diff

let connected t ~source ~target =
  Metrics.incr t.metrics "index.connected";
  Reach.Snapshot.reaches t.d.snapshot source target

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let cached_pairs t = with_lock t (fun () -> Hashtbl.length t.d.paths)

(* The base never changes within an epoch, so its utility is a constant
   of the derived record: sessions solving from the pristine base reuse
   it instead of paying a full [Utility.total] sweep before every
   solve. *)
let base_utility t =
  with_lock t (fun () ->
      let d = t.d in
      match d.base_utility with
      | Some u -> u
      | None ->
          let u = Cdw_core.Utility.total d.base in
          d.base_utility <- Some u;
          u)

(* The base path set of a pair, memoizing on first use. Enumeration runs
   outside the lock: two domains racing on the same cold pair duplicate
   a little work instead of serialising every other pair behind it. The
   derived record is captured once, so a path set is always enumerated
   and cached against one consistent epoch. *)
let base_entry t ~source ~target =
  let d = t.d in
  let key = (source, target) in
  match with_lock t (fun () -> Hashtbl.find_opt d.paths key) with
  | Some entry ->
      Metrics.incr t.metrics "index.paths.hit";
      entry
  | None ->
      Metrics.incr t.metrics "index.paths.miss";
      let entry =
        Trace.span "index.enumerate"
          ~args:[ ("repr", Digraph.repr_name (Workflow.graph d.base)) ]
          (fun () ->
            match
              Paths.all_paths ~max_paths:t.max_paths (Workflow.graph d.base)
                ~src:source ~dst:target
            with
            | paths -> Cached (List.map (List.map Digraph.edge_id) paths)
            | exception Paths.Too_many_paths _ -> Overflow)
      in
      with_lock t (fun () ->
          if
            Hashtbl.length d.paths < max_cached_pairs
            && not (Hashtbl.mem d.paths key)
          then Hashtbl.add d.paths key entry);
      entry

let live_paths t wf ~source ~target =
  let g = Workflow.graph wf in
  match base_entry t ~source ~target with
  | Overflow ->
      Metrics.incr t.metrics "index.paths.overflow";
      Paths.all_paths ~max_paths:t.max_paths g ~src:source ~dst:target
  | Cached ids ->
      List.filter_map
        (fun path ->
          let edges = List.map (Digraph.edge g) path in
          if List.exists (Digraph.edge_removed g) edges then None
          else Some edges)
        ids

let path_provider t = fun wf ~source ~target -> live_paths t wf ~source ~target

(* Memoized solves per epoch. Fixed, like the path cache's bound: once
   full the memo stops inserting and later inputs simply solve. *)
let memo_capacity = 4096

(* The workflow's cut ids relative to the base ("" when [wf == base]),
   packed as the LEB128 varints of the gaps between ascending ids: a
   memoized key outlives the solve, and on a dense base an int list
   of the cuts would be most of an entry's size. [None] if the
   workflow restored an edge the base had removed, which cut ids
   cannot name. *)
let cuts_key base wf =
  if wf == base then Some ""
  else
    let gb = Workflow.graph base and g = Workflow.graph wf in
    let buf = Buffer.create 16 in
    let rec varint x =
      if x < 0x80 then Buffer.add_char buf (Char.chr x)
      else begin
        Buffer.add_char buf (Char.chr (0x80 lor (x land 0x7f)));
        varint (x lsr 7)
      end
    in
    let rec scan id prev =
      if id >= Digraph.n_edges_total g then Some (Buffer.contents buf)
      else
        let removed_in_base = Digraph.edge_removed gb (Digraph.edge gb id) in
        let removed = Digraph.edge_removed g (Digraph.edge g id) in
        if removed_in_base && not removed then None
        else if removed && not removed_in_base then begin
          varint (id - prev);
          scan (id + 1) id
        end
        else scan (id + 1) prev
    in
    scan 0 (-1)

(* Look up, compute outside the lock, insert — the [base_entry]
   protocol: two domains racing on one cold key both solve, and the
   first insert wins; both results are identical, so the race costs
   work, never answers. The derived record is captured once, so a
   solve is memoized against the epoch it ran in, and a session still
   holding an older base bypasses the memo. *)
let memoized t ~base ~algorithm wf cs solve =
  let d = t.d in
  let key =
    if algorithm = Algorithms.Remove_random_edge || d.base != base then None
    else
      Option.map
        (fun cuts -> { algorithm; cuts; pairs = cs })
        (cuts_key base wf)
  in
  match key with
  | None -> solve ()
  | Some key -> (
      match
        with_lock t (fun () ->
            Option.bind d.memo (fun m -> Memo.find_opt m key))
      with
      | Some outcome ->
          Metrics.incr t.metrics "solve.memo.hit";
          outcome
      | None ->
          Metrics.incr t.metrics "solve.memo.miss";
          let outcome = solve () in
          if not outcome.Algorithms.budget_fallback then
            with_lock t (fun () ->
                let m =
                  match d.memo with
                  | Some m -> m
                  | None ->
                      let m = Memo.create 256 in
                      d.memo <- Some m;
                      m
                in
                if Memo.length m < memo_capacity && not (Memo.mem m key) then
                  Memo.add m key outcome);
          outcome)
