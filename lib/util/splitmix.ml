type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let int t bound =
  if bound <= 0 then invalid_arg "Splitmix.int: bound must be positive";
  (* 62 non-negative bits are plenty; modulo bias is negligible for the
     bounds used here (≤ millions). *)
  let r = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  r mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Splitmix.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t bound =
  let r = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  bound *. (r /. 9007199254740992.0) (* 2^53 *)

let bool t = Int64.logand (next_int64 t) 1L = 1L

let state t = t.state
let set_state t state = t.state <- state

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  if Array.length a = 0 then invalid_arg "Splitmix.pick: empty array";
  a.(int t (Array.length a))

let pick_list t l =
  match l with
  | [] -> invalid_arg "Splitmix.pick_list: empty list"
  | _ -> List.nth l (int t (List.length l))
