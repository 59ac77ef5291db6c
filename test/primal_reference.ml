(* A frozen copy of the primal [Simplex.solve] and of [Ilp.solve] as
   they stood before their per-pivot allocations were taken out: a
   fresh index array per pivot, a boxed candidate per row of the ratio
   test, closures for the allowed columns, and each relaxation built
   as a list of dense rows with one explicit [x <= 1] row per free
   variable. The differential tests in [test_lp_prop.ml] hold the
   kernels to it outcome for outcome and bit for bit, and the
   decline-path work gate in [test_hitting_set.ml] to its pivot count.
   Do not optimise this copy. *)

module Ilp = Cdw_lp.Ilp
module Timing = Cdw_util.Timing
open Cdw_lp.Simplex

(* Pivots taken by [solve_lp] (and so [solve_ilp]) since start-up. *)
let pivots = ref 0

let eps = 1e-9
let feas_eps = 1e-6

type tableau = {
  rows : float array array; (* m rows, each of length total + 1 (rhs last) *)
  obj : float array; (* reduced-cost row, length total + 1 *)
  basis : int array; (* row -> basic variable *)
  n_struct : int;
  total : int;
  art_start : int; (* variables >= art_start are artificial *)
}

let pivot t ~row ~col =
  incr pivots;
  let r = t.rows.(row) in
  let p = r.(col) in
  for j = 0 to t.total do r.(j) <- r.(j) /. p done;
  (* Covering tableaux are sparse: eliminate only over the pivot row's
     non-zero columns. At a zero column [x -. f *. 0.] is [x] (up to the
     sign of a zero, which no comparison sees), so skipping it leaves
     every value — and so the pivot sequence — unchanged. *)
  let nz = Array.make (t.total + 1) 0 in
  let n_nz = ref 0 in
  for j = 0 to t.total do
    if r.(j) <> 0.0 then begin
      nz.(!n_nz) <- j;
      incr n_nz
    end
  done;
  let n_nz = !n_nz in
  let eliminate target =
    let f = target.(col) in
    if Float.abs f > eps then
      for k = 0 to n_nz - 1 do
        let j = nz.(k) in
        target.(j) <- target.(j) -. (f *. r.(j))
      done
  in
  Array.iteri (fun i row_i -> if i <> row then eliminate row_i) t.rows;
  eliminate t.obj;
  t.basis.(row) <- col

(* Entering variable. Dantzig's rule (most negative reduced cost) is
   fast but can cycle on degenerate problems; Bland's rule (smallest
   index) cannot. We run Dantzig until the objective stalls, then switch
   to Bland — the classic hybrid. *)
let entering_bland t ~allow =
  let rec loop j =
    if j >= t.total then None
    else if allow j && t.obj.(j) < -.eps then Some j
    else loop (j + 1)
  in
  loop 0

let entering_dantzig t ~allow =
  let best = ref (-1) in
  let best_cost = ref (-.eps) in
  for j = 0 to t.total - 1 do
    if allow j && t.obj.(j) < !best_cost then begin
      best := j;
      best_cost := t.obj.(j)
    end
  done;
  if !best >= 0 then Some !best else None

let leaving t ~col =
  let best = ref None in
  Array.iteri
    (fun i r ->
      if r.(col) > eps then begin
        let ratio = r.(t.total) /. r.(col) in
        match !best with
        | None -> best := Some (i, ratio)
        | Some (bi, br) ->
            if
              ratio < br -. eps
              || (Float.abs (ratio -. br) <= eps && t.basis.(i) < t.basis.(bi))
            then best := Some (i, ratio)
      end)
    t.rows;
  Option.map fst !best

let stall_threshold = 64

let optimize t ~allow ~max_pivots ~deadline =
  let last_objective = ref infinity in
  let stalled = ref 0 in
  let rec loop k =
    if k > max_pivots then failwith "Simplex: pivot cap exceeded";
    if k land 63 = 0 then Cdw_util.Timing.check_deadline deadline;
    let objective = -.t.obj.(t.total) in
    if objective < !last_objective -. eps then begin
      last_objective := objective;
      stalled := 0
    end
    else incr stalled;
    let enter =
      if !stalled > stall_threshold then entering_bland else entering_dantzig
    in
    match enter t ~allow with
    | None -> `Optimal
    | Some col -> (
        match leaving t ~col with
        | None -> `Unbounded
        | Some row ->
            pivot t ~row ~col;
            loop (k + 1))
  in
  loop 0

let build problem =
  let n = Array.length problem.objective in
  let constraints =
    (* Normalise to non-negative right-hand sides. *)
    List.map
      (fun (a, rel, b) ->
        if Array.length a <> n then
          invalid_arg "Simplex: constraint arity mismatch";
        if b >= 0.0 then (a, rel, b)
        else
          let a' = Array.map (fun v -> -.v) a in
          let rel' = match rel with Le -> Ge | Ge -> Le | Eq -> Eq in
          (a', rel', -.b))
      problem.constraints
  in
  let m = List.length constraints in
  let n_slack =
    List.length (List.filter (fun (_, rel, _) -> rel <> Eq) constraints)
  in
  let n_art =
    List.length (List.filter (fun (_, rel, _) -> rel <> Le) constraints)
  in
  let total = n + n_slack + n_art in
  let rows = Array.init m (fun _ -> Array.make (total + 1) 0.0) in
  let basis = Array.make m (-1) in
  let slack = ref n in
  let art = ref (n + n_slack) in
  List.iteri
    (fun i (a, rel, b) ->
      Array.blit a 0 rows.(i) 0 n;
      rows.(i).(total) <- b;
      (match rel with
      | Le ->
          rows.(i).(!slack) <- 1.0;
          basis.(i) <- !slack;
          incr slack
      | Ge ->
          rows.(i).(!slack) <- -1.0;
          incr slack;
          rows.(i).(!art) <- 1.0;
          basis.(i) <- !art;
          incr art
      | Eq ->
          rows.(i).(!art) <- 1.0;
          basis.(i) <- !art;
          incr art))
    constraints;
  {
    rows;
    obj = Array.make (total + 1) 0.0;
    basis;
    n_struct = n;
    total;
    art_start = n + n_slack;
  }

(* Set the reduced-cost row for cost vector [c] (length total), given the
   current basis: obj_j = c_j - Σ_i c_basis(i) · T_ij. *)
let set_objective t c =
  Array.fill t.obj 0 (t.total + 1) 0.0;
  Array.blit c 0 t.obj 0 t.total;
  Array.iteri
    (fun i r ->
      let cb = c.(t.basis.(i)) in
      if Float.abs cb > eps then
        for j = 0 to t.total do t.obj.(j) <- t.obj.(j) -. (cb *. r.(j)) done)
    t.rows

let solve_lp ?(deadline = infinity) problem =
  let t = build problem in
  let max_pivots = 100_000 + (200 * (t.total + Array.length t.rows)) in
  let has_art = t.art_start < t.total in
  let phase1_ok =
    if not has_art then true
    else begin
      let c1 = Array.make t.total 0.0 in
      for j = t.art_start to t.total - 1 do c1.(j) <- 1.0 done;
      set_objective t c1;
      (match optimize t ~allow:(fun _ -> true) ~max_pivots ~deadline with
      | `Unbounded -> assert false (* phase-1 objective is bounded below by 0 *)
      | `Optimal -> ());
      (* The rhs cell of the reduced-cost row holds -(objective value). *)
      -.t.obj.(t.total) <= feas_eps
    end
  in
  if not phase1_ok then Infeasible
  else begin
    (* Drive any artificial still in the basis out (its value is 0). *)
    Array.iteri
      (fun i bv ->
        if bv >= t.art_start then begin
          let r = t.rows.(i) in
          let rec find j =
            if j >= t.art_start then ()
            else if Float.abs r.(j) > eps then pivot t ~row:i ~col:j
            else find (j + 1)
          in
          find 0
        end)
      t.basis;
    let c2 = Array.make t.total 0.0 in
    Array.blit problem.objective 0 c2 0 t.n_struct;
    set_objective t c2;
    let allow j = j < t.art_start in
    match optimize t ~allow ~max_pivots ~deadline with
    | `Unbounded -> Unbounded
    | `Optimal ->
        let x = Array.make t.n_struct 0.0 in
        Array.iteri
          (fun i bv ->
            if bv < t.n_struct then begin
              (* Elimination roundoff can leave a basic value a hair
                 below zero; callers compare coordinates against
                 thresholds (rounding, integrality tests), so snap such
                 noise back to the feasible side. Genuinely negative
                 values (beyond the feasibility tolerance) are left
                 alone — masking those would hide real infeasibility. *)
              let v = t.rows.(i).(t.total) in
              x.(bv) <- (if v < 0.0 && v >= -.feas_eps then 0.0 else v)
            end)
          t.basis;
        let value =
          Array.fold_left ( +. ) 0.0
            (Array.mapi (fun j xj -> problem.objective.(j) *. xj) x)
        in
        Optimal { x; objective_value = value }
  end

let int_eps = 1e-6

(* LP relaxation of the subproblem where [fixed.(j) = Some v] pins
   variable j: substitute pinned variables into the constraints and keep
   only the free columns. Returns the free-variable index mapping. *)
let relaxation (problem : problem) fixed =
  let n = Array.length problem.objective in
  let free = ref [] in
  for j = n - 1 downto 0 do
    if fixed.(j) = None then free := j :: !free
  done;
  let free = Array.of_list !free in
  let nf = Array.length free in
  let col = Array.make n (-1) in
  Array.iteri (fun k j -> col.(j) <- k) free;
  let objective = Array.map (fun j -> problem.objective.(j)) free in
  let shrink (a, rel, b) =
    let a' = Array.make nf 0.0 in
    let b' = ref b in
    Array.iteri
      (fun j aj ->
        match fixed.(j) with
        | None -> a'.(col.(j)) <- aj
        | Some true -> b' := !b' -. aj
        | Some false -> ())
      a;
    (a', rel, !b')
  in
  let upper_bounds =
    List.init nf (fun k ->
        let a = Array.make nf 0.0 in
        a.(k) <- 1.0;
        (a, Le, 1.0))
  in
  let constraints = List.map shrink problem.constraints @ upper_bounds in
  (({ objective; constraints } : problem), free)

let fixed_cost (problem : problem) fixed =
  let acc = ref 0.0 in
  Array.iteri
    (fun j v -> if v = Some true then acc := !acc +. problem.objective.(j))
    fixed;
  !acc

let most_fractional free x =
  let best = ref None in
  Array.iteri
    (fun k j ->
      let frac = Float.abs (x.(k) -. 0.5) in
      match !best with
      | Some (_, bf) when bf <= frac -> ()
      | _ -> best := Some (j, frac))
    free;
  !best

let solve_ilp ?(deadline = infinity) ?(node_limit = 200_000)
    (problem : problem) =
  let n = Array.length problem.objective in
  let incumbent = ref None in
  let incumbent_value = ref infinity in
  let nodes = ref 0 in
  let rec branch fixed =
    Timing.check_deadline deadline;
    incr nodes;
    if !nodes > node_limit then raise Timing.Timeout;
    let lp, free = relaxation problem fixed in
    if Array.length free = 0 then begin
      (* Fully assigned: check feasibility of the empty LP. *)
      match solve_lp ~deadline lp with
      | Infeasible -> ()
      | Optimal _ | Unbounded ->
          let v = fixed_cost problem fixed in
          if v < !incumbent_value -. int_eps then begin
            incumbent_value := v;
            incumbent := Some (Array.map (fun o -> o = Some true) fixed)
          end
    end
    else
      match solve_lp ~deadline lp with
      | Infeasible -> ()
      | Unbounded ->
          (* Every free variable carries an explicit x <= 1 row (and
             simplex keeps x >= 0), so the relaxation is a minimum over
             a compact box and cannot be unbounded; reaching this means
             the tableau went numerically off the rails. Fail loudly
             instead of mis-pruning the subtree. *)
          failwith "Ilp: bounded relaxation reported unbounded"
      | Optimal { x; objective_value } ->
          let bound = objective_value +. fixed_cost problem fixed in
          if bound < !incumbent_value -. int_eps then begin
            let fractional =
              Array.exists
                (fun xk -> xk > int_eps && xk < 1.0 -. int_eps)
                x
            in
            let branch_most_fractional () =
              match most_fractional free x with
              | None -> ()
              | Some (j, _) ->
                  let try_value v =
                    fixed.(j) <- Some v;
                    branch fixed;
                    fixed.(j) <- None
                  in
                  try_value true;
                  try_value false
            in
            if not fractional then begin
              let assignment =
                Array.mapi
                  (fun j v ->
                    match v with
                    | Some b -> b
                    | None ->
                        let rec find k =
                          if free.(k) = j then x.(k) > 0.5 else find (k + 1)
                        in
                        find 0)
                  fixed
              in
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
              if feasible_value problem rounded then begin
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
  branch (Array.make n None);
  match !incumbent with
  | None -> Ilp.Infeasible
  | Some x -> Ilp.Optimal { x; objective_value = !incumbent_value }
