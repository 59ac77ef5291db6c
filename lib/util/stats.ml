type summary = {
  n : int;
  mean : float;
  std : float;
  se : float;
  min : float;
  max : float;
}

let mean xs =
  match xs with
  | [] -> invalid_arg "Stats.mean: empty"
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let summarize xs =
  match xs with
  | [] -> invalid_arg "Stats.summarize: empty"
  | _ ->
      let n = List.length xs in
      let nf = float_of_int n in
      let m = mean xs in
      let var =
        if n < 2 then 0.0
        else
          List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs
          /. (nf -. 1.0)
      in
      let std = sqrt var in
      {
        n;
        mean = m;
        std;
        se = std /. sqrt nf;
        min = List.fold_left min infinity xs;
        max = List.fold_left max neg_infinity xs;
      }
