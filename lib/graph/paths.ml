module Timing = Cdw_util.Timing

exception Too_many_paths of int

let all_paths ?(max_paths = 1_000_000) ?(deadline = infinity) g ~src ~dst =
  if src = dst then invalid_arg "Paths.all_paths: src = dst";
  let reaches_dst = Reach.to_target g dst in
  let acc = ref [] in
  let count = ref 0 in
  (* [trail] holds the current path's edges in reverse. *)
  let rec dfs v trail =
    Timing.check_deadline deadline;
    if v = dst then begin
      incr count;
      if !count > max_paths then raise (Too_many_paths max_paths);
      acc := List.rev trail :: !acc
    end
    else
      Digraph.iter_out g v (fun e ->
          let u = Digraph.edge_dst e in
          if reaches_dst.(u) then dfs u (e :: trail))
  in
  if reaches_dst.(src) then dfs src [];
  List.rev !acc
