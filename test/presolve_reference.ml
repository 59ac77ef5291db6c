(* A frozen copy of [Hitting_set.presolve] as it stood before its
   per-pass cardinality caching: the property test in
   [test_hitting_set.ml] checks the optimised kernel against it
   result-for-result. Do not optimise this copy. *)

module Hs = Cdw_cut.Hitting_set

let validate (p : Hs.problem) =
  Array.iter
    (fun s ->
      if Array.length s = 0 then
        invalid_arg "Hitting_set: empty set cannot be hit")
    p.Hs.sets;
  Array.iter
    (fun w -> if w < 0.0 then invalid_arg "Hitting_set: negative weight")
    p.Hs.weights

let presolve (p : Hs.problem) : Hs.presolve_info =
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
    (* Row dominance: drop live supersets of other live sets. *)
    for i = 0 to m - 1 do
      if Bitset.mem set_mask i then
        for j = 0 to m - 1 do
          if
            i <> j
            && Bitset.mem set_mask i
            && Bitset.mem set_mask j
            && Bitset.masked_subset set_elems.(j) set_elems.(i) ~mask:elem_mask
            && (Bitset.masked_cardinal set_elems.(j) ~mask:elem_mask
                < Bitset.masked_cardinal set_elems.(i) ~mask:elem_mask
               || j < i)
          then begin
            drop_set i;
            changed := true
          end
        done
    done;
    (* Column dominance: drop an element whose live membership is
       covered by a cheaper-or-equal element's. *)
    for f = 0 to n - 1 do
      if Bitset.mem elem_mask f then begin
        if Bitset.masked_cardinal elem_sets.(f) ~mask:set_mask = 0 then begin
          drop_elem f;
          changed := true
        end
        else
          for e = 0 to n - 1 do
            if
              e <> f
              && Bitset.mem elem_mask e
              && Bitset.mem elem_mask f
              && Bitset.masked_subset elem_sets.(f) elem_sets.(e) ~mask:set_mask
            then begin
              let cf = Bitset.masked_cardinal elem_sets.(f) ~mask:set_mask in
              let ce = Bitset.masked_cardinal elem_sets.(e) ~mask:set_mask in
              if
                p.weights.(e) < p.weights.(f)
                || (p.weights.(e) = p.weights.(f) && (cf < ce || e < f))
              then begin
                drop_elem f;
                changed := true
              end
            end
          done
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
    Hs.reduced = { Hs.n_elems = Array.length kept_elems; weights; sets };
    kept_elems;
    forced = List.rev !forced;
  }
