module Digraph = Cdw_graph.Digraph

type stats = { solver_runs : int; free_hits : int; full_resolves : int }

type base_oracle = { connected : source:int -> target:int -> bool }

type t = {
  base : Workflow.t;
  algorithm : Workflow.t -> Constraint_set.t -> Algorithms.cut;
  oracle : base_oracle option;
  mutable current : Workflow.t;
  mutable pristine : bool;
      (* [current] carries no cuts, i.e. equals the base graph-wise;
         base-connectivity answers (the oracle) then apply to it too *)
  mutable accepted : Constraint_set.t;
  mutable stats : stats;
}

let create ?algorithm ?oracle wf =
  let algorithm =
    match algorithm with
    | Some f -> f
    | None -> fun wf cs -> Algorithms.cut Algorithms.Remove_min_mc wf cs
  in
  {
    base = wf;
    algorithm;
    oracle;
    current = wf;
    pristine = true;
    accepted = [];
    stats = { solver_runs = 0; free_hits = 0; full_resolves = 0 };
  }

let workflow t = t.current
let constraints t = t.accepted
let utility t = Utility.total t.current
let stats t = t.stats

let mem s tg cs =
  List.exists
    (fun { Constraint_set.source; target } -> source = s && target = tg)
    cs

(* Constraints of [cs] still connected on the pristine base: O(1) per
   pair through the oracle, BFS without one. *)
let violated_on_base t cs =
  match t.oracle with
  | Some o ->
      List.filter
        (fun { Constraint_set.source; target } -> o.connected ~source ~target)
        cs
  | None -> Constraint_set.violated t.base cs

let violated_on_current t cs =
  if t.pristine then violated_on_base t cs
  else Constraint_set.violated t.current cs

let solve_on t wf cs =
  let (c : Algorithms.cut) = t.algorithm wf cs in
  t.stats <- { t.stats with solver_runs = t.stats.solver_runs + 1 };
  c.workflow

let resolve_all t =
  t.stats <- { t.stats with full_resolves = t.stats.full_resolves + 1 };
  if violated_on_base t t.accepted = [] then begin
    t.current <- t.base;
    t.pristine <- true
  end
  else begin
    t.current <- solve_on t t.base t.accepted;
    t.pristine <- false
  end

(* One atomic net change — the batched equivalent of [add] followed by
   [withdraw], paying at most one solver run. Both halves validate
   before either mutates, so an error leaves the session untouched. *)
let update t ~add:add_pairs ~withdraw:withdraw_pairs =
  match
    Constraint_set.make t.base
      (List.sort_uniq Constraint_set.compare_pair add_pairs)
  with
  | Error _ as e -> Result.map ignore e
  | Ok validated -> (
      let fresh =
        List.filter
          (fun { Constraint_set.source; target } ->
            not (mem source target t.accepted))
          validated
      in
      let merged = t.accepted @ fresh in
      let unknown =
        List.filter (fun (s, tg) -> not (mem s tg merged)) withdraw_pairs
      in
      match unknown with
      | (s, tg) :: _ ->
          (* The pair may carry ids that never named a vertex — garbage
             straight from a request. That is an error reply, never an
             exception, so name the endpoints defensively. *)
          let safe_name v =
            if v >= 0 && v < Workflow.n_vertices t.base then
              Workflow.name t.base v
            else "#" ^ string_of_int v
          in
          Error
            (Printf.sprintf "cannot withdraw unknown constraint (%s, %s)"
               (safe_name s) (safe_name tg))
      | [] ->
          if withdraw_pairs = [] then begin
            (* Pure addition: solve incrementally on the current
               solution, only for pairs earlier cuts left connected. *)
            let still_violated = violated_on_current t fresh in
            t.stats <-
              {
                t.stats with
                free_hits =
                  t.stats.free_hits + List.length fresh
                  - List.length still_violated;
              };
            if still_violated <> [] then begin
              t.current <- solve_on t t.current still_violated;
              t.pristine <- false
            end;
            t.accepted <- merged;
            Ok ()
          end
          else begin
            (* A withdrawal invalidates previous cuts: re-solve the
               surviving set (new additions included) from the base. *)
            t.accepted <-
              List.filter
                (fun { Constraint_set.source; target } ->
                  not
                    (List.exists
                       (fun (s, tg) -> s = source && tg = target)
                       withdraw_pairs))
                merged;
            resolve_all t;
            Ok ()
          end)

let add t pairs = update t ~add:pairs ~withdraw:[]
let withdraw t pairs = update t ~add:[] ~withdraw:pairs
let resolve_batch t = resolve_all t

(* Edge ids cut by this session: removed in [current] but not in the
   base. The base's own removed set is almost always empty, but a base
   frozen mid-lifecycle may carry removals of its own. *)
let delta_removed_ids t =
  if t.pristine then []
  else
    match
      Digraph.removed_beyond ~base:(Workflow.graph t.base)
        (Workflow.graph t.current)
    with
    | Some ids -> ids
    | None ->
        invalid_arg
          "Incremental.delta_removed_ids: the session restored an edge its \
           base removed"

let restore t ~constraints ~removed_ids =
  (* Stable first-occurrence dedup: the accepted order must come back
     exactly as captured. Solvers iterate constraints in list order, so
     a sorted restore would make the session's future re-solves diverge
     from the never-snapshotted (or never-evicted) original. *)
  let dedup =
    let seen = Hashtbl.create 16 in
    List.filter
      (fun p ->
        if Hashtbl.mem seen p then false
        else begin
          Hashtbl.add seen p ();
          true
        end)
      constraints
  in
  match Constraint_set.make t.base dedup with
  | Error _ as e -> Result.map ignore e
  | Ok validated ->
      let g_base = Workflow.graph t.base in
      let bad =
        List.filter
          (fun id -> id < 0 || id >= Digraph.n_edges_total g_base)
          removed_ids
      in
      (match bad with
      | id :: _ ->
          Error (Printf.sprintf "cannot restore unknown edge id %d" id)
      | [] ->
          t.accepted <- validated;
          if removed_ids = [] then begin
            t.current <- t.base;
            t.pristine <- true
          end
          else begin
            let wf = Workflow.copy t.base in
            let g = Workflow.graph wf in
            List.iter
              (fun id -> Digraph.remove_edge g (Digraph.edge g id))
              removed_ids;
            t.current <- wf;
            t.pristine <- false
          end;
          Ok ())
