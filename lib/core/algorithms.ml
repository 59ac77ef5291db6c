module Digraph = Cdw_graph.Digraph
module Paths = Cdw_graph.Paths
module Reach = Cdw_graph.Reach
module Mincut = Cdw_flow.Mincut
module Multicut = Cdw_cut.Multicut
module Splitmix = Cdw_util.Splitmix
module Timing = Cdw_util.Timing
module Trace = Cdw_obs.Trace

module Options = struct
  type path_provider =
    Workflow.t ->
    source:int ->
    target:int ->
    Digraph.edge list list

  type t = {
    rng : Splitmix.t option;
    deadline : float;
    max_paths : int option;
    scheme : Utility.weight_scheme option;
    backend : Multicut.backend;
    utility : (Workflow.t -> float) option;
    paths_for : path_provider option;
    solver_budget_ms : float option;
  }

  let default =
    {
      rng = None;
      deadline = infinity;
      max_paths = None;
      scheme = None;
      backend = Multicut.Ilp;
      utility = None;
      paths_for = None;
      solver_budget_ms = None;
    }
end

type cut = {
  workflow : Workflow.t;
  candidates : int;
  tier : string option;
  bound : float option;
  budget_fallback : bool;
}

type outcome = {
  workflow : Workflow.t;
  removed : Digraph.edge list;
  utility_before : float;
  utility_after : float;
  candidates : int;
  tier : string option;
  bound : float option;
  budget_fallback : bool;
}

let utility_percent o =
  Utility.percent ~original:o.utility_before o.utility_after

(* Run [solve] on a private copy. [solve] returns the number of
   candidates it evaluated. *)
let on_copy wf solve : cut =
  let copy = Workflow.copy wf in
  let candidates = solve copy in
  {
    workflow = copy;
    candidates;
    tier = None;
    bound = None;
    budget_fallback = false;
  }

(* The one-shot report on a cut of [wf]: the removed edges and the
   utility before and after. [utility] is the system utility evaluator
   — Eq. 1 over the linear model unless a caller supplies a general CDW
   model. *)
let report ?(utility = fun wf -> Utility.total wf) wf (c : cut) =
  let before_ids = Digraph.removed_edge_ids (Workflow.graph wf) in
  let g = Workflow.graph c.workflow in
  let removed =
    List.filter
      (fun id -> not (List.mem id before_ids))
      (Digraph.removed_edge_ids g)
    |> List.map (Digraph.edge g)
  in
  {
    workflow = c.workflow;
    removed;
    utility_before = utility wf;
    utility_after = utility c.workflow;
    candidates = c.candidates;
    tier = c.tier;
    bound = c.bound;
    budget_fallback = c.budget_fallback;
  }

(* Paths of one constraint on the current live graph. The caps apply
   only to the default DFS enumeration: a [paths_for] provider answers
   from its own precomputed state. *)
let constraint_paths ?max_paths ?deadline ?paths_for wf
    (pair : Constraint_set.pair) =
  Trace.span "solve.paths" (fun () ->
      match (paths_for : Options.path_provider option) with
      | Some f ->
          f wf ~source:pair.Constraint_set.source
            ~target:pair.Constraint_set.target
      | None ->
          Paths.all_paths ?max_paths ?deadline (Workflow.graph wf)
            ~src:pair.Constraint_set.source ~dst:pair.Constraint_set.target)

(* Algorithms 1 and 2 share their structure: pick one edge of each path
   of each constraint and remove it (dependencies cascade), skipping
   edges a previous step already removed. *)
let per_path_removal ?paths_for pick wf cs =
  on_copy wf (fun copy ->
      List.iter
        (fun pair ->
          let paths = constraint_paths ?paths_for copy pair in
          Trace.span "solve.enforce" (fun () ->
              List.iter
                (fun path ->
                  let e = pick path in
                  if not (Digraph.edge_removed (Workflow.graph copy) e) then
                    ignore (Valuation.remove_with_cascade copy [ e ]))
                paths))
        cs;
      1)

let random_impl (o : Options.t) wf cs =
  let rng =
    match o.Options.rng with
    | Some r -> r
    | None -> Splitmix.create 0xC0FFEE
  in
  per_path_removal ?paths_for:o.Options.paths_for
    (fun path -> Splitmix.pick rng (Array.of_list path))
    wf cs

let first_of_path = function
  | e :: _ -> e
  | [] -> invalid_arg "Algorithms: empty path"

let rec last_of_path = function
  | [ e ] -> e
  | _ :: rest -> last_of_path rest
  | [] -> invalid_arg "Algorithms: empty path"

let first_impl (o : Options.t) wf cs =
  per_path_removal ?paths_for:o.Options.paths_for first_of_path wf cs

let last_impl (o : Options.t) wf cs =
  per_path_removal ?paths_for:o.Options.paths_for last_of_path wf cs

let min_cuts_impl (o : Options.t) wf cs =
  let scheme = o.Options.scheme in
  on_copy wf (fun copy ->
      let g = Workflow.graph copy in
      List.iter
        (fun { Constraint_set.source; target } ->
          if Reach.exists_path g source target then begin
            (* Refresh weights so they reflect removals made for earlier
               constraints (the paper's §6 worked example does this). *)
            let w =
              Trace.span "solve.weights" (fun () ->
                  Utility.cut_weights ?scheme copy)
            in
            let cut =
              Trace.span "solve.mincut" (fun () ->
                  Mincut.compute g
                    ~capacity:(fun e -> w.(Digraph.edge_id e))
                    ~src:source ~dst:target)
            in
            Trace.span "solve.enforce" (fun () ->
                ignore (Valuation.remove_with_cascade copy cut.Mincut.edges))
          end)
        cs;
      1)

(* RemoveMinMC's default solver budget: past it, dense instances
   answer from the greedy multicut (DESIGN.md §2.7). The oracle tiers
   default to none. *)
let remove_min_mc_budget_ms = 5_000.0

(* Algorithm 4 and the oracle tiers: one global multicut on the
   valuation-derived weights, through [Multicut.solve]'s one
   budget-then-greedy path. They differ only in backend and default
   budget. [tier] names an oracle tier: its cut records which tier
   answered, and the proven [bound] unless greedy did. *)
let min_mc_impl ?tier ~backend ~budget_ms (o : Options.t) wf cs =
  let scheme = o.Options.scheme in
  let budget_ms = Option.value o.Options.solver_budget_ms ~default:budget_ms in
  let result = ref None in
  let c =
    on_copy wf (fun copy ->
        let g = Workflow.graph copy in
        let w =
          Trace.span "solve.weights" (fun () ->
              Utility.cut_weights ?scheme copy)
        in
        let r =
          Trace.span "solve.multicut" (fun () ->
              Multicut.solve ~backend ~budget_ms ~deadline:o.Options.deadline
                g
                ~weight:(fun e -> w.(Digraph.edge_id e))
                ~pairs:(Constraint_set.pairs cs))
        in
        result := Some r;
        Trace.span "solve.enforce" (fun () ->
            ignore (Valuation.remove_with_cascade copy r.Multicut.edges));
        1)
  in
  let r = Option.get !result in
  let fell_back = r.Multicut.fell_back in
  {
    c with
    tier =
      Option.map
        (fun t -> if fell_back then "fallback:remove-min-mc" else t)
        tier;
    bound =
      (if tier = None || fell_back then None else Some r.Multicut.lower_bound);
    budget_fallback = fell_back;
  }

(* All constraint paths that must be broken, over the initial graph. *)
let all_constraint_paths ?max_paths ?deadline ?paths_for wf cs =
  List.concat_map
    (fun pair -> constraint_paths ?max_paths ?deadline ?paths_for wf pair)
    cs

let candidate_key edges =
  let ids = List.sort compare (List.map Digraph.edge_id edges) in
  String.concat "," (List.map string_of_int ids)

let dedup_candidate edges =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun e ->
      let id = Digraph.edge_id e in
      if Hashtbl.mem seen id then false
      else begin
        Hashtbl.add seen id ();
        true
      end)
    edges

(* Algorithm 5: enumerate the Cartesian product of the path sets; each
   choice function yields a candidate multicut (the union of the chosen
   edges). Candidates are deduplicated, evaluated by soft-removal +
   utility recomputation, and the best kept. *)
let brute_force_impl (o : Options.t) wf cs =
  let { Options.deadline; max_paths; utility; paths_for; _ } = o in
  on_copy wf (fun copy ->
      let paths =
        Array.of_list
          (List.map Array.of_list
             (all_constraint_paths ?max_paths ~deadline ?paths_for copy cs))
      in
      let k = Array.length paths in
      if k = 0 then 0
      else begin
        (* Candidate evaluation: a custom model re-runs the evaluator
           after a cascade removal; the default linear model uses the
           incremental tracker (touches only the affected region). *)
        let eval_candidate =
          match utility with
          | Some f ->
              fun candidate ->
                let removed = Valuation.remove_with_cascade copy candidate in
                let u = f copy in
                Valuation.restore copy removed;
                u
          | None ->
              let tracker = Valuation_tracker.create copy in
              fun candidate ->
                let token = Valuation_tracker.remove tracker candidate in
                let u = Valuation_tracker.utility tracker in
                Valuation_tracker.undo tracker token;
                u
        in
        let indices = Array.make k 0 in
        let seen = Hashtbl.create 1024 in
        let best_utility = ref neg_infinity in
        let best_candidate = ref [] in
        let evaluated = ref 0 in
        let continue = ref true in
        Trace.span "solve.enumerate"
          ~args:[ ("paths", string_of_int k) ]
          (fun () ->
        while !continue do
          Timing.check_deadline deadline;
          let candidate =
            dedup_candidate
              (Array.to_list (Array.mapi (fun i j -> paths.(i).(j)) indices))
          in
          let key = candidate_key candidate in
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.add seen key ();
            incr evaluated;
            let u = eval_candidate candidate in
            if u > !best_utility then begin
              best_utility := u;
              best_candidate := candidate
            end
          end;
          (* Odometer step over the Cartesian product. *)
          let rec bump i =
            if i < 0 then continue := false
            else if indices.(i) + 1 < Array.length paths.(i) then
              indices.(i) <- indices.(i) + 1
            else begin
              indices.(i) <- 0;
              bump (i - 1)
            end
          in
          bump (k - 1)
        done);
        ignore (Valuation.remove_with_cascade copy !best_candidate);
        !evaluated
      end)

(* Branch-and-bound variant: depth-first over the paths, branching on
   which edge of the next still-unbroken path to remove. Removing edges
   can only lower the (non-negative, additive) utility, so the current
   utility is an admissible upper bound for the subtree. *)
let brute_force_bnb_impl (o : Options.t) wf cs =
  let { Options.deadline; max_paths; utility; paths_for; _ } = o in
  on_copy wf (fun copy ->
      let g = Workflow.graph copy in
      let paths =
        List.map Array.of_list
          (all_constraint_paths ?max_paths ~deadline ?paths_for copy cs)
      in
      (* Shorter paths first: fewer branches near the root. *)
      let paths =
        Array.of_list
          (List.sort
             (fun a b -> compare (Array.length a) (Array.length b))
             paths)
      in
      let k = Array.length paths in
      if k = 0 then 0
      else begin
        (* Persistent push/pop evaluation along the DFS: the default
           linear model keeps an incremental tracker; custom models
           recompute at every node. *)
        let current_utility, push_edge, pop_edge =
          match utility with
          | Some f ->
              let stack = ref [] in
              ( (fun () -> f copy),
                (fun e ->
                  stack := Valuation.remove_with_cascade copy [ e ] :: !stack),
                fun () ->
                  match !stack with
                  | removed :: rest ->
                      Valuation.restore copy removed;
                      stack := rest
                  | [] -> assert false )
          | None ->
              let tracker = Valuation_tracker.create copy in
              let stack = ref [] in
              ( (fun () -> Valuation_tracker.utility tracker),
                (fun e ->
                  stack := Valuation_tracker.remove tracker [ e ] :: !stack),
                fun () ->
                  match !stack with
                  | token :: rest ->
                      Valuation_tracker.undo tracker token;
                      stack := rest
                  | [] -> assert false )
        in
        let baseline = Digraph.removed_edge_ids g in
        let best_utility = ref neg_infinity in
        let best_removed_ids = ref [] in
        let evaluated = ref 0 in
        let snapshot () =
          List.filter
            (fun id -> not (List.mem id baseline))
            (Digraph.removed_edge_ids g)
        in
        let rec dfs i =
          Timing.check_deadline deadline;
          let u = current_utility () in
          if u <= !best_utility then () (* cannot improve: prune *)
          else if i >= k then begin
            incr evaluated;
            best_utility := u;
            best_removed_ids := snapshot ()
          end
          else begin
            let path = paths.(i) in
            if Array.exists (Digraph.edge_removed g) path then dfs (i + 1)
            else
              Array.iter
                (fun e ->
                  push_edge e;
                  dfs (i + 1);
                  pop_edge ())
                path
          end
        in
        Trace.span "solve.search"
          ~args:[ ("paths", string_of_int k) ]
          (fun () -> dfs 0);
        List.iter (fun id -> Digraph.remove_edge g (Digraph.edge g id)) !best_removed_ids;
        !evaluated
      end)

(* Thin per-algorithm wrappers over the [Options]-taking implementations,
   kept because most call sites tune one knob at most. *)

let remove_first_edge wf cs = report wf (first_impl Options.default wf cs)
let remove_min_mc ?scheme ?deadline wf cs =
  report wf
    (min_mc_impl ~backend:Multicut.Ilp ~budget_ms:remove_min_mc_budget_ms
       {
         Options.default with
         Options.scheme;
         deadline = Option.value deadline ~default:infinity;
       }
       wf cs)

let brute_force ?(deadline = infinity) ?max_paths ?utility wf cs =
  report ?utility wf
    (brute_force_impl
       { Options.default with Options.deadline; max_paths; utility }
       wf cs)

type name =
  | Remove_random_edge
  | Remove_first_edge
  | Remove_last_edge
  | Remove_min_cuts
  | Remove_min_mc
  | Brute_force
  | Brute_force_bnb
  | Exact_ilp
  | Approx_lp

let all_names =
  [
    Remove_random_edge;
    Remove_first_edge;
    Remove_last_edge;
    Remove_min_cuts;
    Remove_min_mc;
    Brute_force;
    Brute_force_bnb;
    Exact_ilp;
    Approx_lp;
  ]

let to_string = function
  | Remove_random_edge -> "remove-random-edge"
  | Remove_first_edge -> "remove-first-edge"
  | Remove_last_edge -> "remove-last-edge"
  | Remove_min_cuts -> "remove-min-cuts"
  | Remove_min_mc -> "remove-min-mc"
  | Brute_force -> "brute-force"
  | Brute_force_bnb -> "brute-force-bnb"
  | Exact_ilp -> "exact-ilp"
  | Approx_lp -> "approx-lp"

let of_string s =
  List.find_opt (fun n -> to_string n = s) all_names

let cut ?(options = Options.default) name wf cs =
  match name with
  | Remove_random_edge -> random_impl options wf cs
  | Remove_first_edge -> first_impl options wf cs
  | Remove_last_edge -> last_impl options wf cs
  | Remove_min_cuts -> min_cuts_impl options wf cs
  | Remove_min_mc ->
      min_mc_impl ~backend:options.Options.backend
        ~budget_ms:remove_min_mc_budget_ms options wf cs
  | Brute_force -> brute_force_impl options wf cs
  | Brute_force_bnb -> brute_force_bnb_impl options wf cs
  | Exact_ilp ->
      min_mc_impl ~tier:"exact-ilp" ~backend:Multicut.Ilp ~budget_ms:infinity
        options wf cs
  | Approx_lp ->
      min_mc_impl ~tier:"approx-lp" ~backend:Multicut.Lp_rounding
        ~budget_ms:infinity options wf cs

(* Only the exhaustive searches take the caller's utility evaluator;
   every other algorithm reports Eq. 1. *)
let solve ?(options = Options.default) name wf cs =
  let utility =
    match name with
    | Brute_force | Brute_force_bnb -> options.Options.utility
    | _ -> None
  in
  report ?utility wf (cut ~options name wf cs)

