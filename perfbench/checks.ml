(* Correctness of what the system served, checked outside every timed
   region. *)

module Constraint_set = Cdw_core.Constraint_set
module Digraph = Cdw_graph.Digraph
module Workflow = Cdw_core.Workflow

type states = (string * (int * int) list * int list) list

(* A digest of every user's (accepted pairs, cut edge ids), both taken
   as sets: equal digests mean equal served state. (A live session lists
   its pairs in acceptance order, a recovered one in sorted order.) *)
let digest (states : states) =
  let b = Buffer.create 4096 in
  List.iter
    (fun (user, pairs, cuts) ->
      Buffer.add_string b user;
      Buffer.add_char b '|';
      List.iter (fun (s, t) -> Printf.bprintf b "%d,%d;" s t) (List.sort compare pairs);
      Buffer.add_char b '|';
      List.iter (fun e -> Printf.bprintf b "%d;" e) (List.sort compare cuts);
      Buffer.add_char b '\n')
    (List.sort (fun (a, _, _) (b, _, _) -> String.compare a b) states);
  Digest.to_hex (Digest.string (Buffer.contents b))

type audit = {
  users : int;
  infeasible : int;  (** users with a constrained s→t path left in their view *)
  utility_retained : float;
      (** mean over users of utility under their cut ÷ base utility *)
}

(* Each distinct (pairs, cuts) state is rebuilt once as a view of the
   base — base minus the user's cut — and checked there: no accepted
   constraint may still have a live path, and the view's utility is the
   user's share of the paper's quality metric. Popular states repeat
   across many users, so this costs far less than one view per user. *)
let audit base (states : states) =
  let base_utility = Cdw_core.Utility.total base in
  let seen = Hashtbl.create 1024 in
  let judge pairs cuts =
    match Hashtbl.find_opt seen (pairs, cuts) with
    | Some r -> r
    | None ->
        let view = Workflow.copy base in
        let g = Workflow.graph view in
        List.iter (fun id -> Digraph.remove_edge g (Digraph.edge g id)) cuts;
        let feasible =
          match Constraint_set.make view pairs with
          | Ok cs -> Constraint_set.satisfied view cs
          | Error _ -> false
        in
        let ratio =
          if base_utility > 0.0 then Cdw_core.Utility.total view /. base_utility
          else 1.0
        in
        Hashtbl.add seen (pairs, cuts) (feasible, ratio);
        (feasible, ratio)
  in
  let users, infeasible, sum =
    List.fold_left
      (fun (n, bad, sum) (_, pairs, cuts) ->
        let feasible, ratio = judge pairs cuts in
        (n + 1, (if feasible then bad else bad + 1), sum +. ratio))
      (0, 0, 0.0) states
  in
  {
    users;
    infeasible;
    utility_retained = (if users = 0 then 1.0 else sum /. float_of_int users);
  }
