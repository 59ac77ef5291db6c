type relation = Le | Ge | Eq

type problem = {
  objective : float array;
  constraints : (float array * relation * float) list;
}

type solution = { x : float array; objective_value : float }
type outcome = Optimal of solution | Infeasible | Unbounded

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

let solve ?(deadline = infinity) problem =
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

let feasible_value problem x =
  List.for_all
    (fun (a, rel, b) ->
      let lhs = ref 0.0 in
      Array.iteri (fun j aj -> lhs := !lhs +. (aj *. x.(j))) a;
      match rel with
      | Le -> !lhs <= b +. feas_eps
      | Ge -> !lhs >= b -. feas_eps
      | Eq -> Float.abs (!lhs -. b) <= feas_eps)
    problem.constraints
  && Array.for_all (fun xj -> xj >= -.feas_eps) x

(* Dual simplex for the covering LP [min w·x, Σ_{e∈S} x_e ≥ 1, x ≥ 0],
   certified for a unique 0/1 optimum; see the interface for the proof.
   The tableau is one flat array: m constraint rows then the reduced-cost
   row, each [n + m + 1] wide (structural columns, surplus columns, the
   right-hand side last). Row i starts as [-a_i · x + s_i = -1] with the
   surplus s_i basic at -1; the reduced costs start at [w ≥ 0], so the
   start is dual-feasible and the dual simplex needs neither artificials
   nor a phase 1. *)

let cover_margin = 1e-7
let cover_int_eps = 1e-9

(* Scratch tableaux, shared by every domain: the tableau is major-heap
   sized, and allocating one per call costs peak RSS. A call pops one
   (or starts an empty one), grows it if needed and pushes it back, so
   the pool holds one per concurrent caller. The shared pool is kept as
   measured against per-domain buffers (DESIGN §17). *)
type cover_scratch = { mutable cells : float array; mutable idx : int array }

let cover_pool : cover_scratch list Atomic.t = Atomic.make []

let rec take_scratch () =
  match Atomic.get cover_pool with
  | [] -> { cells = [||]; idx = [||] }
  | s :: rest as l ->
      if Atomic.compare_and_set cover_pool l rest then s else take_scratch ()

let rec give_scratch s =
  let l = Atomic.get cover_pool in
  if not (Atomic.compare_and_set cover_pool l (s :: l)) then give_scratch s

let cover_pivot cells idx ~m ~width ~row ~col =
  let base = row * width in
  let p = cells.(base + col) in
  for j = 0 to width - 1 do
    cells.(base + j) <- cells.(base + j) /. p
  done;
  (* Eliminate over the pivot row's non-zero columns only; idx's tail
     past the basis holds their list. *)
  let n_nz = ref 0 in
  for j = 0 to width - 1 do
    if cells.(base + j) <> 0.0 then begin
      idx.(m + !n_nz) <- j;
      incr n_nz
    end
  done;
  for i = 0 to m do
    if i <> row then begin
      let off = i * width in
      let f = cells.(off + col) in
      if f <> 0.0 then
        for k = m to m + !n_nz - 1 do
          let j = idx.(k) in
          cells.(off + j) <- cells.(off + j) -. (f *. cells.(base + j))
        done
    end
  done;
  idx.(row) <- col

let cover_run ~deadline ~weights ~sets s =
  let n = Array.length weights in
  let m = Array.length sets in
  let width = n + m + 1 in
  let rhs = n + m in
  let obj = m * width in
  let n_cells = (m + 1) * width in
  if Array.length s.cells < n_cells then s.cells <- Array.make n_cells 0.0
  else Array.fill s.cells 0 n_cells 0.0;
  if Array.length s.idx < m + width then s.idx <- Array.make (m + width) 0;
  let cells = s.cells and idx = s.idx in
  Array.iteri
    (fun i set ->
      let off = i * width in
      Array.iter (fun e -> cells.(off + e) <- -1.0) set;
      cells.(off + n + i) <- 1.0;
      cells.(off + rhs) <- -1.0;
      idx.(i) <- n + i)
    sets;
  Array.blit weights 0 cells obj n;
  let max_pivots = 4 * (n + m) + 64 in
  (* Optimal: every basic value is non-negative. Certify a unique 0/1
     optimum or decline. *)
  let certify () =
    (* idx's tail marks each column: 1 basic, 2 nonbasic with a reduced
       cost within the margin ("flat"), 0 the rest. *)
    Array.fill idx m width 0;
    for i = 0 to m - 1 do idx.(m + idx.(i)) <- 1 done;
    let n_flat = ref 0 in
    for j = 0 to rhs - 1 do
      if idx.(m + j) = 0 && cells.(obj + j) <= cover_margin then begin
        idx.(m + j) <- 2;
        incr n_flat
      end
    done;
    (* Row i blocks the flat columns: its basic value is 0 and each flat
       column has a positive entry in it. *)
    let blocks i =
      let off = i * width in
      let rec positive j =
        j >= rhs || ((idx.(m + j) <> 2 || cells.(off + j) > eps) && positive (j + 1))
      in
      Float.abs cells.(off + rhs) <= cover_int_eps && positive 0
    in
    let rec blocked i = i < m && (blocks i || blocked (i + 1)) in
    if !n_flat > 0 && not (blocked 0) then None
    else begin
      let x = Array.make n false in
      let integral = ref true in
      for i = 0 to m - 1 do
        let j = idx.(i) in
        if j < n then begin
          let v = cells.((i * width) + rhs) in
          if Float.abs (v -. 1.0) <= cover_int_eps then x.(j) <- true
          else if Float.abs v > cover_int_eps then integral := false
        end
      done;
      if !integral && Array.for_all (Array.exists (fun e -> x.(e))) sets then
        Some x
      else None
    end
  in
  let rec loop k =
    if k land 63 = 0 then Cdw_util.Timing.check_deadline deadline;
    if k > max_pivots then None
    else begin
      (* Leaving row: the most negative basic value. *)
      let row = ref (-1) in
      let worst = ref (-.eps) in
      for i = 0 to m - 1 do
        let v = cells.((i * width) + rhs) in
        if v < !worst then begin
          worst := v;
          row := i
        end
      done;
      if !row < 0 then certify ()
      else begin
        (* Entering column: the dual ratio test, smallest index on ties. *)
        let base = !row * width in
        let col = ref (-1) in
        let best = ref infinity in
        for j = 0 to rhs - 1 do
          let a = cells.(base + j) in
          if a < -.eps then begin
            let ratio = cells.(obj + j) /. -.a in
            if ratio < !best then begin
              best := ratio;
              col := j
            end
          end
        done;
        if !col < 0 then None
        else begin
          cover_pivot cells idx ~m ~width ~row:!row ~col:!col;
          loop (k + 1)
        end
      end
    end
  in
  loop 0

let solve_cover_unique ?(deadline = infinity) ~weights sets =
  let s = take_scratch () in
  Fun.protect
    ~finally:(fun () -> give_scratch s)
    (fun () -> cover_run ~deadline ~weights ~sets s)
