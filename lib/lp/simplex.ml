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
  nz : int array; (* the pivot row's non-zero columns, reused by every pivot *)
  mutable n_pivots : int;
}

let primal_pivot_count = Atomic.make 0
let primal_pivots () = Atomic.get primal_pivot_count

(* [target -= f * r] over the pivot row's non-zero columns [nz], for
   [f] the target's entry in the pivot column. *)
let eliminate target r ~col ~nz ~n_nz =
  let f = target.(col) in
  if Float.abs f > eps then
    for k = 0 to n_nz - 1 do
      let j = nz.(k) in
      target.(j) <- target.(j) -. (f *. r.(j))
    done

let pivot t ~row ~col =
  let r = t.rows.(row) in
  let p = r.(col) in
  for j = 0 to t.total do r.(j) <- r.(j) /. p done;
  (* Covering tableaux are sparse: eliminate only over the pivot row's
     non-zero columns. At a zero column [x -. f *. 0.] is [x] (up to the
     sign of a zero, which no comparison sees), so skipping it leaves
     every value — and so the pivot sequence — unchanged. *)
  let nz = t.nz in
  let n_nz = ref 0 in
  for j = 0 to t.total do
    if r.(j) <> 0.0 then begin
      nz.(!n_nz) <- j;
      incr n_nz
    end
  done;
  let n_nz = !n_nz in
  for i = 0 to Array.length t.rows - 1 do
    if i <> row then eliminate t.rows.(i) r ~col ~nz ~n_nz
  done;
  eliminate t.obj r ~col ~nz ~n_nz;
  t.basis.(row) <- col;
  t.n_pivots <- t.n_pivots + 1

(* Entering variable among the columns below [limit], or -1 at an
   optimum. Dantzig's rule (most negative reduced cost) is fast but can
   cycle on degenerate problems; Bland's rule (smallest index) cannot.
   We run Dantzig until the objective stalls, then switch to Bland —
   the classic hybrid. *)
let entering_bland t ~limit =
  let j = ref 0 in
  while !j < limit && not (t.obj.(!j) < -.eps) do incr j done;
  if !j < limit then !j else -1

let entering_dantzig t ~limit =
  let best = ref (-1) in
  let best_cost = ref (-.eps) in
  for j = 0 to limit - 1 do
    if t.obj.(j) < !best_cost then begin
      best := j;
      best_cost := t.obj.(j)
    end
  done;
  !best

(* Leaving row by the ratio test, ties to the smaller basic variable;
   -1 when no row bounds the entering column. *)
let leaving t ~col =
  let best = ref (-1) in
  let best_ratio = ref 0.0 in
  for i = 0 to Array.length t.rows - 1 do
    let r = t.rows.(i) in
    if r.(col) > eps then begin
      let ratio = r.(t.total) /. r.(col) in
      if
        !best < 0
        || ratio < !best_ratio -. eps
        || Float.abs (ratio -. !best_ratio) <= eps
           && t.basis.(i) < t.basis.(!best)
      then begin
        best := i;
        best_ratio := ratio
      end
    end
  done;
  !best

let stall_threshold = 64

(* Pivot over the columns below [limit] until no reduced cost is
   negative ([`Optimal]) or the entering column is unbounded. *)
let optimize t ~limit ~max_pivots ~deadline =
  let last_objective = ref infinity in
  let stalled = ref 0 in
  let k = ref 0 in
  let result = ref `Running in
  while !result = `Running do
    if !k > max_pivots then failwith "Simplex: pivot cap exceeded";
    if !k land 63 = 0 then Cdw_util.Timing.check_deadline deadline;
    let objective = -.t.obj.(t.total) in
    if objective < !last_objective -. eps then begin
      last_objective := objective;
      stalled := 0
    end
    else incr stalled;
    let col =
      if !stalled > stall_threshold then entering_bland t ~limit
      else entering_dantzig t ~limit
    in
    if col < 0 then result := `Optimal
    else begin
      let row = leaving t ~col in
      if row < 0 then result := `Unbounded
      else begin
        pivot t ~row ~col;
        incr k
      end
    end
  done;
  !result

(* The tableau of [problem] with each variable [j] whose [fixed.(j)] is
   0 or 1 pinned to that value and substituted into the right-hand
   sides, the free ones ([fixed.(j) < 0]) renumbered in order, and, when
   [boxed], a row [x_k <= 1] per free variable after the problem's
   rows. A row with a negative right-hand side is negated and its
   relation flipped. Slack columns follow the structural ones and the
   artificials the slacks, each numbered in row order. *)
let build ~fixed ~boxed problem =
  let n = Array.length problem.objective in
  let nf = ref 0 in
  Array.iter (fun v -> if v < 0 then incr nf) fixed;
  let nf = !nf in
  let free = Array.make nf 0 in
  let k = ref 0 in
  Array.iteri
    (fun j v ->
      if v < 0 then begin
        free.(!k) <- j;
        incr k
      end)
    fixed;
  let m = List.length problem.constraints in
  let rhs = Array.make m 0.0 in
  let rels = Array.make m Le in
  let negated = Array.make m false in
  let n_slack = ref (if boxed then nf else 0) in
  let n_art = ref 0 in
  List.iteri
    (fun i (a, rel, b) ->
      if Array.length a <> n then
        invalid_arg "Simplex: constraint arity mismatch";
      let b = ref b in
      for j = 0 to n - 1 do
        if fixed.(j) = 1 then b := !b -. a.(j)
      done;
      let b = !b in
      if b >= 0.0 then begin
        rhs.(i) <- b;
        rels.(i) <- rel
      end
      else begin
        rhs.(i) <- -.b;
        negated.(i) <- true;
        rels.(i) <- (match rel with Le -> Ge | Ge -> Le | Eq -> Eq)
      end;
      if rels.(i) <> Eq then incr n_slack;
      if rels.(i) <> Le then incr n_art)
    problem.constraints;
  let n_slack = !n_slack and n_art = !n_art in
  let total = nf + n_slack + n_art in
  let n_rows = if boxed then m + nf else m in
  let rows = Array.init n_rows (fun _ -> Array.make (total + 1) 0.0) in
  let basis = Array.make n_rows (-1) in
  let slack = ref nf in
  let art = ref (nf + n_slack) in
  List.iteri
    (fun i (a, _, _) ->
      let r = rows.(i) in
      for k = 0 to nf - 1 do
        let v = a.(free.(k)) in
        r.(k) <- (if negated.(i) then -.v else v)
      done;
      r.(total) <- rhs.(i);
      match rels.(i) with
      | Le ->
          r.(!slack) <- 1.0;
          basis.(i) <- !slack;
          incr slack
      | Ge ->
          r.(!slack) <- -1.0;
          incr slack;
          r.(!art) <- 1.0;
          basis.(i) <- !art;
          incr art
      | Eq ->
          r.(!art) <- 1.0;
          basis.(i) <- !art;
          incr art)
    problem.constraints;
  for k = 0 to n_rows - m - 1 do
    let r = rows.(m + k) in
    r.(k) <- 1.0;
    r.(total) <- 1.0;
    r.(!slack) <- 1.0;
    basis.(m + k) <- !slack;
    incr slack
  done;
  let t =
    {
      rows;
      obj = Array.make (total + 1) 0.0;
      basis;
      n_struct = nf;
      total;
      art_start = nf + n_slack;
      nz = Array.make (total + 1) 0;
      n_pivots = 0;
    }
  in
  (t, free)

(* Set the reduced-cost row for cost vector [c] (length total), given the
   current basis: obj_j = c_j - Σ_i c_basis(i) · T_ij. *)
let set_objective t c =
  Array.fill t.obj 0 (t.total + 1) 0.0;
  Array.blit c 0 t.obj 0 t.total;
  for i = 0 to Array.length t.rows - 1 do
    let r = t.rows.(i) in
    let cb = c.(t.basis.(i)) in
    if Float.abs cb > eps then
      for j = 0 to t.total do t.obj.(j) <- t.obj.(j) -. (cb *. r.(j)) done
  done

let run ~deadline problem ~fixed ~boxed =
  let t, free = build ~fixed ~boxed problem in
  let max_pivots = 100_000 + (200 * (t.total + Array.length t.rows)) in
  let has_art = t.art_start < t.total in
  let phase1_ok =
    (not has_art)
    || begin
         let c1 = Array.make t.total 0.0 in
         for j = t.art_start to t.total - 1 do c1.(j) <- 1.0 done;
         set_objective t c1;
         (match optimize t ~limit:t.total ~max_pivots ~deadline with
         | `Unbounded | `Running ->
             assert false (* phase-1 objective is bounded below by 0 *)
         | `Optimal -> ());
         (* The rhs cell of the reduced-cost row holds -(objective value). *)
         -.t.obj.(t.total) <= feas_eps
       end
  in
  let outcome =
    if not phase1_ok then Infeasible
    else begin
      (* Drive any artificial still in the basis out (its value is 0). *)
      for i = 0 to Array.length t.basis - 1 do
        if t.basis.(i) >= t.art_start then begin
          let r = t.rows.(i) in
          let j = ref 0 in
          while !j < t.art_start && not (Float.abs r.(!j) > eps) do incr j done;
          if !j < t.art_start then pivot t ~row:i ~col:!j
        end
      done;
      let c = Array.make t.total 0.0 in
      Array.iteri (fun k j -> c.(k) <- problem.objective.(j)) free;
      set_objective t c;
      match optimize t ~limit:t.art_start ~max_pivots ~deadline with
      | `Unbounded -> Unbounded
      | `Running -> assert false
      | `Optimal ->
          let x = Array.make t.n_struct 0.0 in
          for i = 0 to Array.length t.basis - 1 do
            let bv = t.basis.(i) in
            if bv < t.n_struct then begin
              (* Elimination roundoff can leave a basic value a hair
                 below zero; callers compare coordinates against
                 thresholds (rounding, integrality tests), so snap such
                 noise back to the feasible side. Genuinely negative
                 values (beyond the feasibility tolerance) are left
                 alone — masking those would hide real infeasibility. *)
              let v = t.rows.(i).(t.total) in
              x.(bv) <- (if v < 0.0 && v >= -.feas_eps then 0.0 else v)
            end
          done;
          let value = ref 0.0 in
          for k = 0 to t.n_struct - 1 do
            value := !value +. (c.(k) *. x.(k))
          done;
          Optimal { x; objective_value = !value }
    end
  in
  ignore (Atomic.fetch_and_add primal_pivot_count t.n_pivots);
  outcome

let solve ?(deadline = infinity) problem =
  run ~deadline problem
    ~fixed:(Array.make (Array.length problem.objective) (-1))
    ~boxed:false

let solve_relaxation ?(deadline = infinity) ~fixed problem =
  if Array.length fixed <> Array.length problem.objective then
    invalid_arg "Simplex: fixed arity mismatch";
  run ~deadline problem ~fixed ~boxed:true

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
   certified for a unique 0/1 optimum; see the interface for the proof
   and the state's contract. Each tableau row is a float array, [width]
   long: cell 0 is the row's basic value, the others its columns,
   numbered from 1 as they are added: a structural one per variable and
   a surplus one per row. Every cell at or past [n_cols] is 0. Row i
   starts as [-a_i · x + s_i = -1] with its surplus s_i basic at -1;
   the reduced costs ([obj], same layout) start at [w ≥ 0], so the
   start is dual-feasible and the dual simplex needs neither
   artificials nor a phase 1. *)

let cover_margin = 1e-7
let cover_int_eps = 1e-9

type cover = {
  mutable width : int;
  mutable n_cols : int; (* cells in use, the basic value's included *)
  mutable n_vars : int;
  mutable n_rows : int;
  mutable rows : float array array;
  mutable basis : int array; (* row -> its basic column *)
  mutable sets : int array array; (* row -> its set *)
  mutable obj : float array;
  mutable var_of_col : int array; (* -1 for a surplus column *)
  mutable col_of_var : int array;
  mutable scratch : int array;
      (* the pivot row's non-zero cells, then certify's column marks *)
}

let pivots = Atomic.make 0
let declines = Atomic.make 0
let cover_pivots () = Atomic.get pivots
let cover_declines () = Atomic.get declines

let extend a len cap fill =
  let b = Array.make cap fill in
  Array.blit a 0 b 0 len;
  b

let make ~cols ~rows =
  {
    width = cols + 1;
    n_cols = 1;
    n_vars = 0;
    n_rows = 0;
    rows = Array.make rows [||];
    basis = Array.make rows 0;
    sets = Array.make rows [||];
    obj = Array.make (cols + 1) 0.0;
    var_of_col = Array.make (cols + 1) (-1);
    col_of_var = Array.make cols 0;
    scratch = Array.make (cols + 1) 0;
  }

let cover_create () = make ~cols:32 ~rows:8

(* Make room for one more column. *)
let reserve_column t =
  if t.n_cols = t.width then begin
    let w = 2 * t.width in
    for i = 0 to t.n_rows - 1 do
      t.rows.(i) <- extend t.rows.(i) t.n_cols w 0.0
    done;
    t.obj <- extend t.obj t.n_cols w 0.0;
    t.var_of_col <- extend t.var_of_col t.n_cols w (-1);
    t.col_of_var <- extend t.col_of_var t.n_vars w 0;
    t.scratch <- Array.make w 0;
    t.width <- w
  end

let cover_add_column t w =
  reserve_column t;
  let c = t.n_cols in
  t.obj.(c) <- w;
  t.var_of_col.(c) <- t.n_vars;
  t.col_of_var.(t.n_vars) <- c;
  t.n_vars <- t.n_vars + 1;
  t.n_cols <- c + 1

let cover_add_row t set =
  reserve_column t;
  let m = t.n_rows in
  if m = Array.length t.rows then begin
    let cap = max 4 (2 * m) in
    t.rows <- extend t.rows m cap [||];
    t.sets <- extend t.sets m cap [||];
    t.basis <- extend t.basis m cap 0
  end;
  let s = t.n_cols in
  let r = Array.make t.width 0.0 in
  r.(0) <- -1.0;
  Array.iter (fun e -> r.(t.col_of_var.(e)) <- -1.0) set;
  r.(s) <- 1.0;
  (* Express the row in the current basis: subtract each row whose
     basic column it has a non-zero in. Basic columns are exactly unit
     columns, so one pass in any order zeroes them all. *)
  for i = 0 to m - 1 do
    let f = r.(t.basis.(i)) in
    if f <> 0.0 then begin
      let ri = t.rows.(i) in
      for j = 0 to s - 1 do
        r.(j) <- r.(j) -. (f *. ri.(j))
      done
    end
  done;
  t.rows.(m) <- r;
  t.basis.(m) <- s;
  t.sets.(m) <- set;
  t.n_rows <- m + 1;
  t.n_cols <- s + 1

let cover_pivot t ~row ~col =
  let r = t.rows.(row) in
  let p = r.(col) in
  for j = 0 to t.n_cols - 1 do
    r.(j) <- r.(j) /. p
  done;
  (* Eliminate over the pivot row's non-zero cells only. *)
  let nz = t.scratch in
  let n_nz = ref 0 in
  for j = 0 to t.n_cols - 1 do
    if r.(j) <> 0.0 then begin
      nz.(!n_nz) <- j;
      incr n_nz
    end
  done;
  let n_nz = !n_nz in
  let eliminate target =
    let f = target.(col) in
    if f <> 0.0 then
      for k = 0 to n_nz - 1 do
        let j = nz.(k) in
        target.(j) <- target.(j) -. (f *. r.(j))
      done
  in
  for i = 0 to t.n_rows - 1 do
    if i <> row then eliminate t.rows.(i)
  done;
  eliminate t.obj;
  t.basis.(row) <- col

(* At an optimum (every basic value non-negative): certify a unique 0/1
   optimum or decline. *)
let certify t =
  let m = t.n_rows and w = t.n_cols in
  (* Column marks: 1 basic, 2 nonbasic with a reduced cost within the
     margin ("flat"), 0 the rest. *)
  let mark = t.scratch in
  Array.fill mark 0 w 0;
  for i = 0 to m - 1 do
    mark.(t.basis.(i)) <- 1
  done;
  let n_flat = ref 0 in
  for j = 1 to w - 1 do
    if mark.(j) = 0 && t.obj.(j) <= cover_margin then begin
      mark.(j) <- 2;
      incr n_flat
    end
  done;
  (* Row i blocks the flat columns: its basic value is 0 and each flat
     column has a positive entry in it. *)
  let blocks i =
    let r = t.rows.(i) in
    let rec positive j =
      j >= w || ((mark.(j) <> 2 || r.(j) > eps) && positive (j + 1))
    in
    Float.abs r.(0) <= cover_int_eps && positive 1
  in
  let rec blocked i = i < m && (blocks i || blocked (i + 1)) in
  if !n_flat > 0 && not (blocked 0) then None
  else begin
    let x = Array.make t.n_vars false in
    let integral = ref true in
    for i = 0 to m - 1 do
      let v = t.var_of_col.(t.basis.(i)) in
      if v >= 0 then begin
        let b = t.rows.(i).(0) in
        if Float.abs (b -. 1.0) <= cover_int_eps then x.(v) <- true
        else if Float.abs b > cover_int_eps then integral := false
      end
    done;
    let covered i = Array.exists (fun e -> x.(e)) t.sets.(i) in
    let rec all_covered i = i >= m || (covered i && all_covered (i + 1)) in
    if !integral && all_covered 0 then Some x else None
  end

let cover_solve ?(deadline = infinity) t =
  let m = t.n_rows and w = t.n_cols in
  let max_pivots = (4 * (t.n_vars + m)) + 64 in
  let rec loop k =
    if k land 63 = 0 then Cdw_util.Timing.check_deadline deadline;
    if k > max_pivots then (k, None)
    else begin
      (* Leaving row: the most negative basic value. *)
      let row = ref (-1) in
      let worst = ref (-.eps) in
      for i = 0 to m - 1 do
        let v = t.rows.(i).(0) in
        if v < !worst then begin
          worst := v;
          row := i
        end
      done;
      if !row < 0 then (k, certify t)
      else begin
        (* Entering column: the dual ratio test, smallest index on ties. *)
        let r = t.rows.(!row) in
        let col = ref (-1) in
        let best = ref infinity in
        for j = 1 to w - 1 do
          let a = r.(j) in
          if a < -.eps then begin
            let ratio = t.obj.(j) /. -.a in
            if ratio < !best then begin
              best := ratio;
              col := j
            end
          end
        done;
        if !col < 0 then (k, None)
        else begin
          cover_pivot t ~row:!row ~col:!col;
          loop (k + 1)
        end
      end
    end
  in
  let k, answer = loop 0 in
  ignore (Atomic.fetch_and_add pivots k);
  if Option.is_none answer then Atomic.incr declines;
  answer

let solve_cover_unique ?deadline ~weights sets =
  let n = Array.length weights and m = Array.length sets in
  let t = make ~cols:(n + m) ~rows:m in
  Array.iter (cover_add_column t) weights;
  Array.iter (cover_add_row t) sets;
  cover_solve ?deadline t
