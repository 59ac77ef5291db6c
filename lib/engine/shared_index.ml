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
module Memo_key = struct
  type t = memo_key

  let equal a b =
    a.algorithm = b.algorithm
    && String.equal a.cuts b.cuts
    && List.equal
         (fun (p : Constraint_set.pair) (q : Constraint_set.pair) ->
           p.source = q.source && p.target = q.target)
         a.pairs b.pairs

  let hash = Hashtbl.hash_param 64 128
end

module Memo = Hashtbl.Make (Memo_key)

(* A bounded insert-only table whose lookups take no lock. Each bucket
   is an immutable chain, and an insert publishes a longer one by
   [Atomic.compare_and_set], so a reader sees a bucket before or after
   an insert, never during one. Each entry carries its key's full hash,
   and a scan compares that int before it calls [K.equal]: a full table
   chains about 16 entries to a bucket, nearly all with another hash.
   The bucket array is allocated by the first insert (an epoch that
   never caches allocates nothing), and an insert reserves its slot in
   [size] before it adds, so racing inserts never take the table past
   [capacity]; an insert of a key already present, or into a full
   table, leaves the table as it is. *)
module Table (K : Hashtbl.HashedType) : sig
  type 'a t

  val create : unit -> 'a t
  val find_opt : 'a t -> K.t -> 'a option
  val add : 'a t -> K.t -> 'a -> unit
  val length : 'a t -> int
end = struct
  type 'a chain =
    | Nil
    | Entry of { hash : int; key : K.t; value : 'a; next : 'a chain }

  type 'a t = {
    buckets : 'a chain Atomic.t array option Atomic.t;
    size : int Atomic.t;
  }

  let capacity = 4096
  (* A power of two, for [hash land (n_buckets - 1)], and small enough
     that the bucket array is a minor-heap block: a larger one is
     allocated in the major heap, and in a process with parked domains
     each such allocation hastens a stop-the-world minor collection
     (1024 buckets made the epoch tests five times slower). *)
  let n_buckets = 256
  let create () = { buckets = Atomic.make None; size = Atomic.make 0 }
  let length t = Atomic.get t.size
  let bucket buckets h = buckets.(h land (n_buckets - 1))

  let rec assoc h k = function
    | Nil -> None
    | Entry e ->
        if e.hash = h && K.equal k e.key then Some e.value else assoc h k e.next

  let find_opt t k =
    match Atomic.get t.buckets with
    | None -> None
    | Some buckets ->
        let h = K.hash k in
        assoc h k (Atomic.get (bucket buckets h))

  let buckets t =
    match Atomic.get t.buckets with
    | Some b -> b
    | None ->
        let b = Array.init n_buckets (fun _ -> Atomic.make Nil) in
        if Atomic.compare_and_set t.buckets None (Some b) then b
        else Option.get (Atomic.get t.buckets)

  let add t k v =
    if Atomic.fetch_and_add t.size 1 >= capacity then Atomic.decr t.size
    else
      let h = K.hash k in
      let b = bucket (buckets t) h in
      let rec insert () =
        let l = Atomic.get b in
        if Option.is_some (assoc h k l) then Atomic.decr t.size
        else
          let l' = Entry { hash = h; key = k; value = v; next = l } in
          if not (Atomic.compare_and_set b l l') then insert ()
      in
      insert ()
end

module Memo_table = Table (Memo_key)

module Path_table = Table (struct
  type t = int * int

  let equal (a, b) (c, d) = a = c && b = d
  let hash = Hashtbl.hash
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
  paths : path_entry Path_table.t;
  memo : Algorithms.cut Memo_table.t;
  inflight : flight Memo.t;  (* guarded by [lock] *)
}

type t = {
  mutable d : derived;
  lock : Mutex.t;  (* guards [inflight] *)
  lock_entries : int Atomic.t;
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
    paths = Path_table.create ();
    memo = Memo_table.create ();
    inflight = Memo.create 16;
  }

let max_paths = 200_000

let create wf =
  {
    d = derive wf;
    lock = Mutex.create ();
    lock_entries = Atomic.make 0;
    metrics = Metrics.create ();
  }

let with_lock t f =
  Mutex.protect t.lock (fun () ->
      Atomic.incr t.lock_entries;
      f ())

let base t = t.d.base
let metrics t = t.metrics
let lock_entries t = Atomic.get t.lock_entries
let cache_sizes t = (Path_table.length t.d.paths, Memo_table.length t.d.memo)
let epoch t = Workflow.epoch t.d.base
(* Swap in a new base at a drain boundary. The caller (the engine's
   migrate, under its own lock, with no drain in flight) owns the
   quiescence argument; the swap takes the index lock, like the
   single-flight sections, only to order itself with them. The
   workflow is frozen with the next epoch number unless the caller
   pins one (replay installs the journaled epoch verbatim). *)
let install ?epoch:e t wf =
  let next = match e with Some e -> e | None -> epoch t + 1 in
  let d = derive (Workflow.freeze ~epoch:next wf) in
  with_lock t (fun () -> t.d <- d);
  Metrics.incr t.metrics "index.installs"

let connected t ~source ~target =
  Metrics.incr t.metrics "index.connected";
  Reach.Snapshot.reaches t.d.snapshot source target

(* The base path set of a pair, memoizing on first use. Lookup and
   insert take no lock, and enumeration runs with none held: two domains
   racing on the same cold pair duplicate a little work instead of
   serialising every other pair behind it, and the first insert wins.
   The derived record is captured once, so a path set is always
   enumerated and cached against one consistent epoch. *)
let base_entry t ~source ~target =
  let d = t.d in
  let key = (source, target) in
  match Path_table.find_opt d.paths key with
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
              Paths.all_paths ~max_paths (Workflow.graph d.base)
                ~src:source ~dst:target
            with
            | paths -> Cached (List.map (List.map Digraph.edge_id) paths)
            | exception Paths.Too_many_paths _ -> Overflow)
      in
      Path_table.add d.paths key entry;
      entry

let live_paths t wf ~source ~target =
  let g = Workflow.graph wf in
  match base_entry t ~source ~target with
  | Overflow ->
      Metrics.incr t.metrics "index.paths.overflow";
      Paths.all_paths ~max_paths g ~src:source ~dst:target
  | Cached ids ->
      List.filter_map
        (fun path ->
          let edges = List.map (Digraph.edge g) path in
          if List.exists (Digraph.edge_removed g) edges then None
          else Some edges)
        ids

let path_provider t = fun wf ~source ~target -> live_paths t wf ~source ~target

(* The workflow's cut ids relative to the base ("" when [wf == base]),
   packed as the LEB128 varints of the gaps between ascending ids: a
   memoized key outlives the solve, and on a dense base an int list
   of the cuts would be most of an entry's size. [None] if the
   workflow restored an edge the base had removed, which cut ids
   cannot name. *)
let cuts_key base wf =
  if wf == base then Some ""
  else
    match
      Digraph.removed_beyond ~base:(Workflow.graph base) (Workflow.graph wf)
    with
    | None -> None
    | Some [] -> Some ""
    | Some ids ->
        let buf = Buffer.create 16 in
        let rec varint x =
          if x < 0x80 then Buffer.add_char buf (Char.chr x)
          else begin
            Buffer.add_char buf (Char.chr (0x80 lor (x land 0x7f)));
            varint (x lsr 7)
          end
        in
        ignore
          (List.fold_left
             (fun prev id ->
               varint (id - prev);
               id)
             (-1) ids);
        Some (Buffer.contents buf)

(* A wall-clock answer is never memoized. *)
let insert d key (c : Algorithms.cut) =
  if not c.budget_fallback then Memo_table.add d.memo key c

(* Look up without a lock; on a miss, take the lock to look again and
   either wait for the key's solve in progress or become its owner,
   solve outside the lock, insert and hand the answer to the waiters —
   so users of one type in one cold fan-out drain solve it once. The
   owner inserts before it settles, so an asker that misses and then
   finds no flight under the lock finds the answer in the memo. The
   derived record is captured once, so a solve is memoized against the
   epoch it ran in, and a session still holding an older base bypasses
   the memo. *)
let memoized t ~base ~algorithm wf cs solve =
  let d = t.d in
  let key =
    if algorithm = Algorithms.Remove_random_edge || d.base != base then None
    else
      Option.map
        (fun cuts -> { algorithm; cuts; pairs = cs })
        (cuts_key base wf)
  in
  let hit c =
    Metrics.incr t.metrics "solve.memo.hit";
    c
  in
  match key with
  | None -> solve ()
  | Some key -> (
      match Memo_table.find_opt d.memo key with
      | Some c -> hit c
      | None -> (
          let found =
            with_lock t (fun () ->
                match Memo_table.find_opt d.memo key with
                | Some c -> `Hit c
                | None -> (
                    match Memo.find_opt d.inflight key with
                    | Some f -> (
                        while Option.is_none f.result do
                          Condition.wait f.cv t.lock
                        done;
                        match f.result with
                        | Some (Some c) -> `Hit c
                        | _ -> `Alone)
                    | None ->
                        let f = { cv = Condition.create (); result = None } in
                        Memo.add d.inflight key f;
                        `Own f))
          in
          match found with
          | `Hit c -> hit c
          | `Alone ->
              Metrics.incr t.metrics "solve.memo.miss";
              let c = solve () in
              insert d key c;
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
              insert d key c;
              with_lock t (fun () ->
                  settle (if c.budget_fallback then None else Some c));
              c))
