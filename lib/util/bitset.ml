type t = { words : int array; cap : int }

let bits_per_word = 63
(* OCaml native ints: use 63 usable bits per word on 64-bit platforms. *)

let create cap =
  if cap < 0 then invalid_arg "Bitset.create: negative capacity";
  { words = Array.make ((cap + bits_per_word - 1) / bits_per_word + 1) 0; cap }

let check t i =
  if i < 0 || i >= t.cap then
    invalid_arg (Printf.sprintf "Bitset: %d out of [0,%d)" i t.cap)

let mem t i =
  check t i;
  t.words.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

let add t i =
  check t i;
  let w = i / bits_per_word in
  t.words.(w) <- t.words.(w) lor (1 lsl (i mod bits_per_word))

let remove t i =
  check t i;
  let w = i / bits_per_word in
  t.words.(w) <- t.words.(w) land lnot (1 lsl (i mod bits_per_word))

let union_into dst src =
  if dst.cap <> src.cap then invalid_arg "Bitset.union_into: capacity mismatch";
  for w = 0 to Array.length dst.words - 1 do
    dst.words.(w) <- dst.words.(w) lor src.words.(w)
  done

let check_same_cap a b =
  if a.cap <> b.cap then invalid_arg "Bitset: capacity mismatch"

(* Kernighan's loop: [w land (w - 1)] clears the lowest set bit, so
   this iterates once per set bit rather than once per bit position. *)
let rec popcount_word w acc =
  if w = 0 then acc else popcount_word (w land (w - 1)) (acc + 1)

let masked_subset a b ~mask =
  check_same_cap a b;
  check_same_cap a mask;
  let ok = ref true in
  for w = 0 to Array.length a.words - 1 do
    if a.words.(w) land mask.words.(w) land lnot b.words.(w) <> 0 then ok := false
  done;
  !ok

let masked_cardinal a ~mask =
  check_same_cap a mask;
  let acc = ref 0 in
  for w = 0 to Array.length a.words - 1 do
    acc := popcount_word (a.words.(w) land mask.words.(w)) !acc
  done;
  !acc

let masked_choose a ~mask =
  check_same_cap a mask;
  let found = ref None in
  (try
     for w = 0 to Array.length a.words - 1 do
       let bits = a.words.(w) land mask.words.(w) in
       if bits <> 0 then begin
         let b = ref 0 in
         while bits land (1 lsl !b) = 0 do incr b done;
         found := Some ((w * bits_per_word) + !b);
         raise Exit
       end
     done
   with Exit -> ());
  !found
let cardinal t = Array.fold_left (fun acc w -> popcount_word w acc) 0 t.words

let iter f t =
  for w = 0 to Array.length t.words - 1 do
    let word = t.words.(w) in
    if word <> 0 then
      for b = 0 to bits_per_word - 1 do
        if word land (1 lsl b) <> 0 then f ((w * bits_per_word) + b)
      done
  done

let to_list t =
  let acc = ref [] in
  iter (fun i -> acc := i :: !acc) t;
  List.rev !acc
