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

(* Word masks for [presolve]: a mask over [k] items is [words_for k]
   words of [Sys.int_size] bits (63 on a 64-bit host), and a table of
   masks is one flat array whose row [i] is the words
   [i * words, (i + 1) * words). *)
let bits = Sys.int_size

let words_for k = (k + bits - 1) / bits
let mem mask i = mask.(i / bits) land (1 lsl (i mod bits)) <> 0
let set_bit mask i = mask.(i / bits) <- mask.(i / bits) lor (1 lsl (i mod bits))

let clear_bit mask i =
  mask.(i / bits) <- mask.(i / bits) land lnot (1 lsl (i mod bits))

let rec popcount w acc =
  if w = 0 then acc else popcount (w land (w - 1)) (acc + 1)

(* Members of row [i] of [rows] under [mask]. *)
let masked_card rows ~words ~mask i =
  let c = ref 0 in
  for w = 0 to words - 1 do
    c := popcount (rows.((i * words) + w) land mask.(w)) !c
  done;
  !c

(* Is row [i] of [rows] a subset of row [j] under [mask]? *)
let masked_subset rows ~words ~mask i j =
  let w = ref 0 in
  while
    !w < words
    && rows.((i * words) + !w) land mask.(!w) land lnot rows.((j * words) + !w)
       = 0
  do
    incr w
  done;
  !w = words

(* Row [i]'s only member under [mask], or -1 when it has more than one. *)
let only_member rows ~words ~mask i =
  let found = ref (-1) in
  let w = ref 0 in
  while !w < words do
    let x = rows.((i * words) + !w) land mask.(!w) in
    if x <> 0 then
      if !found >= 0 || x land (x - 1) <> 0 then begin
        found := -1;
        w := words
      end
      else begin
        let b = ref 0 in
        while x land (1 lsl !b) = 0 do incr b done;
        found := (!w * bits) + !b
      end;
    incr w
  done;
  !found

(* Classic set-cover reductions to fixpoint; see the interface for the
   three rules. One kernel on flat word masks: [set_elems] holds each
   set's elements and [elem_sets] each element's sets, next to one mask
   of the live items per side. A round costs O(m² wn) words for the
   rows and O(n k wm + k² wm) for the columns, for [wn] and [wm] the
   words of a mask over the elements and over the sets and [k ≤ n] the
   column classes below; decline pools have few classes, since the elements
   of one shared edge chain are met by the same sets.

   Each dominance rule drops exactly the items dominated by an item
   live when the rule starts. Dominance with its tie-breaks is a strict
   order, so a dominated item has an undominated dominator, which the
   rule never drops; the sequential scan therefore does not depend on
   its order. Row dominance still scans the live sets in order. Column
   dominance reduces to classes of equal masked membership: inside a
   class only the cheapest element (the first on ties) can survive, and
   it drops when a class with a strictly larger membership holds an
   element no heavier. Singleton sets force their elements in set
   order, so [forced] keeps its order. *)
let presolve p =
  validate p;
  let m = Array.length p.sets in
  let n = p.n_elems in
  let wm = words_for m and wn = words_for n in
  let set_elems = Array.make (m * wn) 0 in
  let elem_sets = Array.make (n * wm) 0 in
  Array.iteri
    (fun i s ->
      Array.iter
        (fun e ->
          if e < 0 || e >= n then
            invalid_arg "Hitting_set: element out of range";
          set_bit set_elems ((i * wn * bits) + e);
          set_bit elem_sets ((e * wm * bits) + i))
        s)
    p.sets;
  let set_live = Array.make wm 0 in
  for i = 0 to m - 1 do set_bit set_live i done;
  let elem_live = Array.make wn 0 in
  for e = 0 to n - 1 do set_bit elem_live e done;
  let forced = ref [] in
  let set_card = Array.make m 0 in
  let elem_card = Array.make n 0 in
  (* Column classes: each live element's class, and per class a
     representative element (its membership is the class's), its
     cheapest element (-1 while it has none with a comparable weight),
     and the weight of the cheapest element of a class with a strictly
     larger membership ([infinity] and [has_super] false when none). *)
  let class_of = Array.make n 0 in
  let class_rep = Array.make n 0 in
  let class_best = Array.make n (-1) in
  let has_super = Array.make n false in
  let super_weight = Array.make n infinity in
  let changed = ref true in
  while !changed do
    changed := false;
    (* Singleton sets force their element, which satisfies every set
       holding it. *)
    for i = 0 to m - 1 do
      if mem set_live i then begin
        let e = only_member set_elems ~words:wn ~mask:elem_live i in
        if e >= 0 then begin
          forced := e :: !forced;
          for w = 0 to wm - 1 do
            set_live.(w) <- set_live.(w) land lnot elem_sets.((e * wm) + w)
          done;
          clear_bit elem_live e;
          changed := true
        end
      end
    done;
    (* Row dominance: drop live supersets of other live sets, the
       smaller (or, on equal sets, the first) one kept. *)
    for i = 0 to m - 1 do
      set_card.(i) <-
        (if mem set_live i then
           masked_card set_elems ~words:wn ~mask:elem_live i
         else 0)
    done;
    for i = 0 to m - 1 do
      let ci = set_card.(i) in
      let j = ref 0 in
      while !j < m && mem set_live i do
        let cj = set_card.(!j) in
        if
          !j <> i
          && mem set_live !j
          && (cj < ci || (cj = ci && !j < i))
          && masked_subset set_elems ~words:wn ~mask:elem_live !j i
        then begin
          clear_bit set_live i;
          changed := true
        end;
        incr j
      done
    done;
    (* Column dominance: drop an element that no live set holds, or
       whose live membership is covered by a cheaper-or-equal element's
       (fewer sets, then the lower index, breaking a weight tie). A NaN
       weight neither dominates nor is dominated. *)
    let n_classes = ref 0 in
    for f = 0 to n - 1 do
      if mem elem_live f then begin
        let cf = masked_card elem_sets ~words:wm ~mask:set_live f in
        elem_card.(f) <- cf;
        if cf = 0 then begin
          clear_bit elem_live f;
          changed := true
        end
        else begin
          (* Equal membership: as many sets, and a subset. *)
          let c = ref 0 in
          while
            !c < !n_classes
            && not
                 (elem_card.(class_rep.(!c)) = cf
                 && masked_subset elem_sets ~words:wm ~mask:set_live f
                      class_rep.(!c))
          do
            incr c
          done;
          if !c = !n_classes then begin
            class_rep.(!c) <- f;
            class_best.(!c) <- -1;
            incr n_classes
          end;
          class_of.(f) <- !c;
          let wf = p.weights.(f) in
          let b = class_best.(!c) in
          if (not (Float.is_nan wf)) && (b < 0 || wf < p.weights.(b)) then
            class_best.(!c) <- f
        end
      end
    done;
    for a = 0 to !n_classes - 1 do
      let ra = class_rep.(a) in
      has_super.(a) <- false;
      super_weight.(a) <- infinity;
      for b = 0 to !n_classes - 1 do
        let rb = class_rep.(b) and best = class_best.(b) in
        if
          best >= 0
          && elem_card.(rb) > elem_card.(ra)
          && masked_subset elem_sets ~words:wm ~mask:set_live ra rb
        then begin
          has_super.(a) <- true;
          if p.weights.(best) < super_weight.(a) then
            super_weight.(a) <- p.weights.(best)
        end
      done
    done;
    for f = 0 to n - 1 do
      if mem elem_live f then begin
        let a = class_of.(f) and wf = p.weights.(f) in
        if
          ((not (Float.is_nan wf)) && class_best.(a) <> f)
          || (has_super.(a) && super_weight.(a) <= wf)
        then begin
          clear_bit elem_live f;
          changed := true
        end
      end
    done
  done;
  let new_index = Array.make n (-1) in
  let n_kept = ref 0 in
  for e = 0 to n - 1 do
    if mem elem_live e then begin
      new_index.(e) <- !n_kept;
      incr n_kept
    end
  done;
  let kept_elems = Array.make !n_kept 0 in
  Array.iteri (fun e k -> if k >= 0 then kept_elems.(k) <- e) new_index;
  let n_sets = ref 0 in
  for i = 0 to m - 1 do
    if mem set_live i then incr n_sets
  done;
  let sets = Array.make !n_sets [||] in
  let k = ref 0 in
  for i = 0 to m - 1 do
    if mem set_live i then begin
      let s = Array.make (masked_card set_elems ~words:wn ~mask:elem_live i) 0 in
      let j = ref 0 in
      for e = 0 to n - 1 do
        if new_index.(e) >= 0 && mem set_elems ((i * wn * bits) + e) then begin
          s.(!j) <- new_index.(e);
          incr j
        end
      done;
      sets.(!k) <- s;
      incr k
    end
  done;
  let weights = Array.map (fun e -> p.weights.(e)) kept_elems in
  {
    reduced = { n_elems = !n_kept; weights; sets };
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
let solve_ilp p =
  validate p;
  match Cdw_lp.Simplex.solve_cover_unique ~weights:p.weights p.sets with
  | Some x -> x
  | None -> solve_presolved_ilp ~deadline:infinity p

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
