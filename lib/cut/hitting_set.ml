module Timing = Cdw_util.Timing

type problem = {
  n_elems : int;
  weights : float array;
  sets : int array array;
}

let validate p =
  Array.iter
    (fun s ->
      if Array.length s = 0 then
        invalid_arg "Hitting_set: empty set cannot be hit")
    p.sets;
  Array.iter
    (fun w -> if w < 0.0 then invalid_arg "Hitting_set: negative weight")
    p.weights

let cost p chosen =
  let acc = ref 0.0 in
  Array.iteri (fun e b -> if b then acc := !acc +. p.weights.(e)) chosen;
  !acc

let covers p chosen =
  Array.for_all (fun s -> Array.exists (fun e -> chosen.(e)) s) p.sets

type presolve_info = {
  reduced : problem;
  kept_elems : int array;
  forced : int list;
}

(* Classic set-cover reductions to fixpoint; see the interface for the
   three rules. Bitset-based: element→set membership over m bits, set
   →element contents over n bits, with activity masks, so each rule
   round is O(m² + n²) word operations. *)
let presolve p =
  validate p;
  let module Bitset = Cdw_util.Bitset in
  let m = Array.length p.sets in
  let n = p.n_elems in
  let set_elems = Array.init m (fun _ -> Bitset.create n) in
  let elem_sets = Array.init n (fun _ -> Bitset.create m) in
  Array.iteri
    (fun i s ->
      Array.iter
        (fun e ->
          Bitset.add set_elems.(i) e;
          Bitset.add elem_sets.(e) i)
        s)
    p.sets;
  let set_mask = Bitset.create m in
  for i = 0 to m - 1 do Bitset.add set_mask i done;
  let elem_mask = Bitset.create n in
  for e = 0 to n - 1 do Bitset.add elem_mask e done;
  let forced = ref [] in
  let drop_set i = Bitset.remove set_mask i in
  let drop_elem e = Bitset.remove elem_mask e in
  let force e =
    forced := e :: !forced;
    Bitset.iter (fun i -> if Bitset.mem set_mask i then drop_set i) elem_sets.(e);
    drop_elem e
  in
  let changed = ref true in
  while !changed do
    changed := false;
    (* Singleton sets force their element. *)
    for i = 0 to m - 1 do
      if
        Bitset.mem set_mask i
        && Bitset.masked_cardinal set_elems.(i) ~mask:elem_mask = 1
      then begin
        (match Bitset.masked_choose set_elems.(i) ~mask:elem_mask with
        | Some e -> force e
        | None -> assert false);
        changed := true
      end
    done;
    (* Row dominance: drop live supersets of other live sets. The
       element mask is fixed throughout this rule, so each live set's
       cardinality is counted once per pass, and the cardinality test
       (implied by the subset relation) runs before the subset scan. *)
    let set_card =
      Array.init m (fun i ->
          if Bitset.mem set_mask i then
            Bitset.masked_cardinal set_elems.(i) ~mask:elem_mask
          else 0)
    in
    for i = 0 to m - 1 do
      let ci = set_card.(i) in
      let j = ref 0 in
      while !j < m && Bitset.mem set_mask i do
        let cj = set_card.(!j) in
        if
          !j <> i
          && Bitset.mem set_mask !j
          && (cj < ci || (cj = ci && !j < i))
          && Bitset.masked_subset set_elems.(!j) set_elems.(i) ~mask:elem_mask
        then begin
          drop_set i;
          changed := true
        end;
        incr j
      done
    done;
    (* Column dominance: drop an element whose live membership is
       covered by a cheaper-or-equal element's. The set mask is fixed
       throughout this rule; as above, cardinalities are counted once
       and the weight/cardinality test runs before the subset scan. *)
    let elem_card =
      Array.init n (fun e ->
          if Bitset.mem elem_mask e then
            Bitset.masked_cardinal elem_sets.(e) ~mask:set_mask
          else 0)
    in
    for f = 0 to n - 1 do
      if Bitset.mem elem_mask f then begin
        let cf = elem_card.(f) in
        if cf = 0 then begin
          drop_elem f;
          changed := true
        end
        else begin
          let wf = p.weights.(f) in
          let e = ref 0 in
          while !e < n && Bitset.mem elem_mask f do
            let ce = elem_card.(!e) in
            let we = p.weights.(!e) in
            if
              !e <> f
              && Bitset.mem elem_mask !e
              && cf <= ce
              && (we < wf || (we = wf && (cf < ce || !e < f)))
              && Bitset.masked_subset elem_sets.(f) elem_sets.(!e)
                   ~mask:set_mask
            then begin
              drop_elem f;
              changed := true
            end;
            incr e
          done
        end
      end
    done
  done;
  let kept_elems = Array.of_list (Bitset.to_list elem_mask) in
  let new_index = Array.make n (-1) in
  Array.iteri (fun k e -> new_index.(e) <- k) kept_elems;
  let sets =
    List.map
      (fun i ->
        let acc = ref [] in
        Bitset.iter
          (fun e -> if Bitset.mem elem_mask e then acc := new_index.(e) :: !acc)
          set_elems.(i);
        Array.of_list (List.rev !acc))
      (Bitset.to_list set_mask)
    |> Array.of_list
  in
  let weights = Array.map (fun e -> p.weights.(e)) kept_elems in
  {
    reduced = { n_elems = Array.length kept_elems; weights; sets };
    kept_elems;
    forced = List.rev !forced;
  }

let expand p info chosen_reduced =
  let chosen = Array.make p.n_elems false in
  List.iter (fun e -> chosen.(e) <- true) info.forced;
  Array.iteri
    (fun k e -> if chosen_reduced.(k) then chosen.(e) <- true)
    info.kept_elems;
  chosen

(* The general exact path: presolve, then branch-and-bound over LP
   relaxations. *)
let solve_presolved_ilp ~deadline p =
  let info = presolve p in
  let q = info.reduced in
  if Array.length q.sets = 0 then expand p info (Array.make q.n_elems false)
  else begin
    let constraints =
      Array.to_list
        (Array.map
           (fun s ->
             let a = Array.make q.n_elems 0.0 in
             Array.iter (fun e -> a.(e) <- 1.0) s;
             (a, Cdw_lp.Simplex.Ge, 1.0))
           q.sets)
    in
    match
      Cdw_lp.Ilp.solve ~deadline
        { objective = Array.copy q.weights; constraints }
    with
    | Cdw_lp.Ilp.Optimal { x; _ } -> expand p info x
    | Cdw_lp.Ilp.Infeasible ->
        (* Cannot happen: choosing every element hits every non-empty set. *)
        assert false
  end

(* The certified dual simplex first: when it answers, its set is the
   unique optimum, which the presolved path would return as well. *)
let solve_ilp ?(deadline = infinity) p =
  validate p;
  match Cdw_lp.Simplex.solve_cover_unique ~deadline ~weights:p.weights p.sets with
  | Some x -> x
  | None -> solve_presolved_ilp ~deadline p

module Vec = Cdw_util.Vec

type pool = {
  elem_weights : float Vec.t;
  pool_sets : int array Vec.t;
  cover : Cdw_lp.Simplex.cover;
  mutable absorbed_elems : int; (* elements and sets the cover holds *)
  mutable absorbed_sets : int;
}

let create_pool () =
  {
    elem_weights = Vec.create ();
    pool_sets = Vec.create ();
    cover = Cdw_lp.Simplex.cover_create ();
    absorbed_elems = 0;
    absorbed_sets = 0;
  }

let add_elem pool w = Vec.push pool.elem_weights w
let add_set pool set = Vec.push pool.pool_sets set

let pool_problem pool =
  {
    n_elems = Vec.length pool.elem_weights;
    weights = Vec.to_array pool.elem_weights;
    sets = Vec.to_array pool.pool_sets;
  }

(* [solve_ilp] on the pool's whole program, with one dual-simplex state
   carried across calls: each call hands the cover what was added since
   the last one, and a decline goes straight to the presolved path,
   which returns what [solve_ilp] would. *)
let solve_pool_ilp ?(deadline = infinity) pool =
  let module Simplex = Cdw_lp.Simplex in
  for e = pool.absorbed_elems to Vec.length pool.elem_weights - 1 do
    let w = Vec.get pool.elem_weights e in
    if w < 0.0 then invalid_arg "Hitting_set: negative weight";
    Simplex.cover_add_column pool.cover w
  done;
  for i = pool.absorbed_sets to Vec.length pool.pool_sets - 1 do
    let set = Vec.get pool.pool_sets i in
    if Array.length set = 0 then
      invalid_arg "Hitting_set: empty set cannot be hit";
    Simplex.cover_add_row pool.cover set
  done;
  pool.absorbed_elems <- Vec.length pool.elem_weights;
  pool.absorbed_sets <- Vec.length pool.pool_sets;
  match Simplex.cover_solve ~deadline pool.cover with
  | Some x -> x
  | None -> solve_presolved_ilp ~deadline (pool_problem pool)

let solve_greedy p =
  validate p;
  let chosen = Array.make p.n_elems false in
  let uncovered = Array.map (fun _ -> true) p.sets in
  let n_uncovered = ref (Array.length p.sets) in
  while !n_uncovered > 0 do
    (* Score element e: weight / number of uncovered sets containing e. *)
    let hits = Array.make p.n_elems 0 in
    Array.iteri
      (fun i s ->
        if uncovered.(i) then
          Array.iter (fun e -> hits.(e) <- hits.(e) + 1) s)
      p.sets;
    let best = ref (-1) in
    let best_score = ref infinity in
    for e = 0 to p.n_elems - 1 do
      if (not chosen.(e)) && hits.(e) > 0 then begin
        let score = p.weights.(e) /. float_of_int hits.(e) in
        if score < !best_score then begin
          best_score := score;
          best := e
        end
      end
    done;
    assert (!best >= 0);
    chosen.(!best) <- true;
    Array.iteri
      (fun i s ->
        if uncovered.(i) && Array.exists (fun e -> e = !best) s then begin
          uncovered.(i) <- false;
          decr n_uncovered
        end)
      p.sets
  done;
  chosen

(* Lower bound on covering [uncovered] given already [chosen], with
   [banned] elements unusable: greedily take sets disjoint from
   everything counted so far; each such set costs at least its cheapest
   usable element. Admissible because disjoint sets need distinct
   elements. A set with no usable element yields [infinity]. *)
let disjoint_bound p uncovered chosen banned =
  let used = Array.make p.n_elems false in
  let bound = ref 0.0 in
  Array.iteri
    (fun i s ->
      if uncovered.(i) then
        let touches = Array.exists (fun e -> used.(e) || chosen.(e)) s in
        if not touches then begin
          let cheapest = ref infinity in
          Array.iter
            (fun e ->
              used.(e) <- true;
              if not banned.(e) then cheapest := Float.min !cheapest p.weights.(e))
            s;
          bound := !bound +. !cheapest
        end)
    p.sets;
  !bound

let solve_bnb_raw ?(deadline = infinity) p =
  validate p;
  let incumbent = ref (solve_greedy p) in
  let incumbent_cost = ref (cost p !incumbent) in
  let chosen = Array.make p.n_elems false in
  let banned = Array.make p.n_elems false in
  let uncovered = Array.map (fun _ -> true) p.sets in
  let refresh_uncovered () =
    Array.iteri
      (fun i s -> uncovered.(i) <- not (Array.exists (fun e -> chosen.(e)) s))
      p.sets
  in
  let smallest_uncovered () =
    let best = ref (-1) in
    Array.iteri
      (fun i s ->
        if
          uncovered.(i)
          && (!best < 0 || Array.length s < Array.length p.sets.(!best))
        then best := i)
      p.sets;
    !best
  in
  let rec branch current_cost =
    Timing.check_deadline deadline;
    refresh_uncovered ();
    let i = smallest_uncovered () in
    if i < 0 then begin
      if current_cost < !incumbent_cost -. 1e-12 then begin
        incumbent_cost := current_cost;
        incumbent := Array.copy chosen
      end
    end
    else if current_cost +. disjoint_bound p uncovered chosen banned
            < !incumbent_cost -. 1e-12
    then begin
      (* Branch on each usable element of the chosen set; ban it for the
         later siblings so no element subset is explored twice. *)
      let banned_here = ref [] in
      Array.iter
        (fun e ->
          if (not chosen.(e)) && not banned.(e) then begin
            chosen.(e) <- true;
            branch (current_cost +. p.weights.(e));
            chosen.(e) <- false;
            refresh_uncovered ();
            banned.(e) <- true;
            banned_here := e :: !banned_here
          end)
        p.sets.(i);
      List.iter (fun e -> banned.(e) <- false) !banned_here
    end
  in
  branch 0.0;
  !incumbent

let solve_bnb ?deadline p =
  let info = presolve p in
  let q = info.reduced in
  if Array.length q.sets = 0 then expand p info (Array.make q.n_elems false)
  else expand p info (solve_bnb_raw ?deadline q)
