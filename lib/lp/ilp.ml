module Timing = Cdw_util.Timing

type outcome =
  | Optimal of { x : bool array; objective_value : float }
  | Infeasible

let int_eps = 1e-6

(* Throughout, [fixed.(j)] is -1 while variable j is free and the 0 or
   1 a branch pinned it to otherwise; the node's relaxation
   ({!Simplex.solve_relaxation}) keeps the free variables in order. *)

let fixed_cost (problem : Simplex.problem) fixed =
  let acc = ref 0.0 in
  Array.iteri
    (fun j v -> if v = 1 then acc := !acc +. problem.objective.(j))
    fixed;
  !acc

(* The free variable whose relaxation value [x] is nearest 1/2, the
   first on ties; -1 when every variable is fixed. *)
let most_fractional fixed x =
  let best = ref (-1) in
  let best_frac = ref 0.0 in
  let k = ref 0 in
  for j = 0 to Array.length fixed - 1 do
    if fixed.(j) < 0 then begin
      let frac = Float.abs (x.(!k) -. 0.5) in
      if !best < 0 || not (!best_frac <= frac) then begin
        best := j;
        best_frac := frac
      end;
      incr k
    end
  done;
  !best

let solve ?(deadline = infinity) ?(node_limit = 200_000)
    (problem : Simplex.problem) =
  let n = Array.length problem.objective in
  let incumbent = ref None in
  let incumbent_value = ref infinity in
  let nodes = ref 0 in
  let fixed = Array.make n (-1) in
  let rec branch n_free =
    Timing.check_deadline deadline;
    incr nodes;
    if !nodes > node_limit then raise Timing.Timeout;
    let lp = Simplex.solve_relaxation ~deadline ~fixed problem in
    if n_free = 0 then begin
      (* Fully assigned: check feasibility of the empty LP. *)
      match lp with
      | Simplex.Infeasible -> ()
      | Simplex.Optimal _ | Simplex.Unbounded ->
          let v = fixed_cost problem fixed in
          if v < !incumbent_value -. int_eps then begin
            incumbent_value := v;
            incumbent := Some (Array.map (fun v -> v = 1) fixed)
          end
    end
    else
      match lp with
      | Simplex.Infeasible -> ()
      | Simplex.Unbounded ->
          (* Every free variable carries an explicit x <= 1 row (and
             simplex keeps x >= 0), so the relaxation is a minimum over
             a compact box and cannot be unbounded; reaching this means
             the tableau went numerically off the rails. Fail loudly
             instead of mis-pruning the subtree. *)
          failwith "Ilp: bounded relaxation reported unbounded"
      | Simplex.Optimal { x; objective_value } ->
          let bound = objective_value +. fixed_cost problem fixed in
          if bound < !incumbent_value -. int_eps then begin
            let fractional =
              Array.exists
                (fun xk -> xk > int_eps && xk < 1.0 -. int_eps)
                x
            in
            let branch_most_fractional () =
              let j = most_fractional fixed x in
              if j >= 0 then begin
                fixed.(j) <- 1;
                branch (n_free - 1);
                fixed.(j) <- 0;
                branch (n_free - 1);
                fixed.(j) <- -1
              end
            in
            if not fractional then begin
              let assignment = Array.make n false in
              let k = ref 0 in
              for j = 0 to n - 1 do
                if fixed.(j) >= 0 then assignment.(j) <- fixed.(j) = 1
                else begin
                  assignment.(j) <- x.(!k) > 0.5;
                  incr k
                end
              done;
              (* The LP objective still carries the near-integral
                 residue (each coordinate may sit int_eps off its
                 integer), so score the *rounded* assignment at its
                 exact cost — and accept it only if the rounding kept
                 it feasible; a near-integral point hugging a tight
                 constraint can round across it, in which case the
                 subtree still needs branching. *)
              let rounded =
                Array.map (fun b -> if b then 1.0 else 0.0) assignment
              in
              if Simplex.feasible_value problem rounded then begin
                let exact =
                  let acc = ref 0.0 in
                  Array.iteri
                    (fun j b ->
                      if b then acc := !acc +. problem.objective.(j))
                    assignment;
                  !acc
                in
                if exact < !incumbent_value -. int_eps then begin
                  incumbent_value := exact;
                  incumbent := Some assignment
                end
              end
              else branch_most_fractional ()
            end
            else branch_most_fractional ()
          end
  in
  branch n;
  match !incumbent with
  | None -> Infeasible
  | Some x -> Optimal { x; objective_value = !incumbent_value }
