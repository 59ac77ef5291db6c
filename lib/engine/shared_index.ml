module Algorithms = Cdw_core.Algorithms
module Constraint_set = Cdw_core.Constraint_set
module Digraph = Cdw_graph.Digraph
module Paths = Cdw_graph.Paths
module Reach = Cdw_graph.Reach
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

(* One solve of a key in progress. Later askers of the key park on [cv]
   (under the index lock) until the owner lands [result]: [Some c] is
   the owner's answer, [None] that its solve raised or fell back, so
   each waiter solves for itself. *)
type flight = { cv : Condition.t; mutable result : Algorithms.cut option option }

(* The epoch-dependent slice of the index: everything derived from one
   frozen base. Installing a new epoch swaps the whole record at once,
   so a reader holding a [derived] value sees one consistent epoch. *)
type derived = {
  base : Workflow.t;
  snapshot : Reach.Snapshot.t;
  paths : (int * int, path_entry) Hashtbl.t;
  mutable memo : Algorithms.cut Memo.t option;
      (* allocated on first insert; guarded by [lock] *)
  inflight : flight Memo.t;  (* guarded by [lock] *)
}

type t = {
  mutable d : derived;
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
    snapshot =
      Trace.span "index.snapshot"
        ~args:[ ("repr", Digraph.repr_name g) ]
        (fun () -> Reach.Snapshot.create g);
    paths = Hashtbl.create 256;
    memo = None;
    inflight = Memo.create 16;
  }

(* Bound on the (source, target) pairs whose path sets are memoized. *)
let max_cached_pairs = 4096

let create ?(max_paths = 200_000) wf =
  {
    d = derive wf;
    lock = Mutex.create ();
    max_paths;
    metrics = Metrics.create ();
  }

let base t = t.d.base
let metrics t = t.metrics
let epoch t = Workflow.epoch t.d.base
(* Swap in a new base at a drain boundary. The caller (the engine's
   migrate, under its own lock, with no drain in flight) owns the
   quiescence argument; the index lock only protects its own cache
   state. The workflow is frozen with the next epoch number unless the
   caller pins one (replay installs the journaled epoch verbatim). *)
let install ?epoch:e t wf =
  let next = match e with Some e -> e | None -> epoch t + 1 in
  let d = derive (Workflow.freeze ~epoch:next wf) in
  Mutex.lock t.lock;
  t.d <- d;
  Mutex.unlock t.lock;
  Metrics.incr t.metrics "index.installs"

let connected t ~source ~target =
  Metrics.incr t.metrics "index.connected";
  Reach.Snapshot.reaches t.d.snapshot source target

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

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

(* Called under [t.lock]. A wall-clock answer is never memoized. *)
let insert d key (c : Algorithms.cut) =
  if not c.budget_fallback then begin
    let m =
      match d.memo with
      | Some m -> m
      | None ->
          let m = Memo.create 256 in
          d.memo <- Some m;
          m
    in
    if Memo.length m < memo_capacity && not (Memo.mem m key) then
      Memo.add m key c
  end

(* Look up; on a miss, either wait for the key's solve in progress or
   become its owner, solve outside the lock, insert and hand the answer
   to the waiters — so users of one type in one cold fan-out drain
   solve it once. The derived record is captured once, so a solve is
   memoized against the epoch it ran in, and a session still holding an
   older base bypasses the memo. *)
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
      let found =
        with_lock t (fun () ->
            match Option.bind d.memo (fun m -> Memo.find_opt m key) with
            | Some c -> `Hit c
            | None -> (
                match Memo.find_opt d.inflight key with
                | Some f -> (
                    while Option.is_none f.result do
                      Condition.wait f.cv t.lock
                    done;
                    match f.result with Some (Some c) -> `Hit c | _ -> `Alone)
                | None ->
                    let f = { cv = Condition.create (); result = None } in
                    Memo.add d.inflight key f;
                    `Own f))
      in
      match found with
      | `Hit c ->
          Metrics.incr t.metrics "solve.memo.hit";
          c
      | `Alone ->
          Metrics.incr t.metrics "solve.memo.miss";
          let c = solve () in
          with_lock t (fun () -> insert d key c);
          c
      | `Own f ->
          Metrics.incr t.metrics "solve.memo.miss";
          let settle result =
            Memo.remove d.inflight key;
            f.result <- Some result;
            Condition.broadcast f.cv
          in
          let c =
            try solve ()
            with e ->
              with_lock t (fun () -> settle None);
              raise e
          in
          with_lock t (fun () ->
              insert d key c;
              settle (if c.budget_fallback then None else Some c));
          c)
