type distribution = Non_uniform | Uniform

type t = {
  n_constraints : int;
  n_vertices : int;
  stages : int;
  distribution : distribution;
  density : float;
  value_lo : int;
  value_hi : int;
}

let default =
  {
    n_constraints = 10;
    n_vertices = 100;
    stages = 5;
    distribution = Non_uniform;
    density = 0.0;
    value_lo = 1;
    value_hi = 100;
  }

let dataset1a ~n_constraints = { default with n_constraints }
let dataset1b ~n_constraints = { default with n_constraints; n_vertices = 1000 }

let dataset1c ~n_constraints =
  { default with n_constraints; distribution = Uniform; density = 0.2 }

let dataset2_base =
  {
    default with
    n_constraints = 10;
    n_vertices = 150;
    stages = 3;
    distribution = Uniform;
  }

let dataset3 ~n_vertices = { default with n_constraints = 5; n_vertices }

(* The paper's NU vector is (50, 25, 10, 10, 5)% for k = 5. For other k
   we keep the spirit: half the vertices at stage 0, then geometrically
   decreasing shares with a small purpose tail. *)
let shares p =
  match p.distribution with
  | Uniform -> Array.make p.stages (1.0 /. float_of_int p.stages)
  | Non_uniform ->
      if p.stages = 5 then [| 0.50; 0.25; 0.10; 0.10; 0.05 |]
      else begin
        let xs = Array.make p.stages 0.0 in
        xs.(0) <- 0.5;
        let middle = p.stages - 2 in
        for i = 1 to p.stages - 2 do
          xs.(i) <- 0.45 /. float_of_int middle
        done;
        xs.(p.stages - 1) <- 0.05;
        xs
      end

let stage_widths p =
  let xs = shares p in
  let widths =
    Array.map
      (fun share ->
        max 1 (int_of_float (Float.round (share *. float_of_int p.n_vertices))))
      xs
  in
  (* Force the exact vertex total, adjusting the widest stages first so
     small stages keep their ≥ 1 vertices. *)
  let total () = Array.fold_left ( + ) 0 widths in
  let widest () =
    let best = ref 0 in
    Array.iteri (fun i w -> if w > widths.(!best) then best := i) widths;
    !best
  in
  while total () > p.n_vertices do
    let i = widest () in
    widths.(i) <- widths.(i) - 1
  done;
  while total () < p.n_vertices do
    let i = widest () in
    widths.(i) <- widths.(i) + 1
  done;
  widths

let validate p =
  if p.stages < 2 then Error "stages must be ≥ 2"
  else if p.n_vertices < p.stages then Error "need at least one vertex per stage"
  else if p.n_constraints < 0 then Error "negative constraint count"
  else if p.density < 0.0 || p.density > 1.0 then Error "density outside [0,1]"
  else if p.value_lo < 0 || p.value_hi < p.value_lo then
    Error "bad valuation range"
  else Ok ()
