(* The metric and workload declarations of BENCHMARK.json, the single
   place units, directions and regression bounds are written down. *)

module Json = Cdw_util.Json

type metric = {
  name : string;
  unit_ : string;
  higher_is_better : bool;
  bound : float option;  (** end-to-end metrics only *)
}

type t = {
  run_seconds : int;
  workloads : string list;
  end_to_end : metric list;
  per_layer : metric list;
}

let load file =
  let ( let* ) = Result.bind in
  let* text =
    try Ok (In_channel.with_open_bin file In_channel.input_all)
    with Sys_error e -> Error e
  in
  let* json = Json.parse text in
  let field key j =
    Option.to_result ~none:(Printf.sprintf "%s: missing %S" file key) (Json.member key j)
  in
  let list key j =
    let* v = field key j in
    Option.to_result ~none:(Printf.sprintf "%s: %S is not a list" file key) (Json.to_list v)
  in
  let text key j =
    let* v = field key j in
    Option.to_result ~none:(Printf.sprintf "%s: %S is not a string" file key) (Json.to_text v)
  in
  let metric j =
    let* name = text "name" j in
    let* unit_ = text "unit" j in
    let* better = text "better" j in
    Ok
      {
        name;
        unit_;
        higher_is_better = better = "higher";
        bound = Option.bind (Json.member "bound" j) Json.to_float;
      }
  in
  let all f l = List.fold_right (fun x acc -> let* acc = acc in let* y = f x in Ok (y :: acc)) l (Ok []) in
  let* run_seconds = field "run_seconds" json in
  let* workloads = list "workloads" json in
  let* workloads = all (text "name") workloads in
  let* e2e = list "end_to_end" json in
  let* end_to_end = all metric e2e in
  let* layer = list "per_layer" json in
  let* per_layer = all metric layer in
  Ok
    {
      run_seconds = int_of_float (Option.value ~default:0.0 (Json.to_float run_seconds));
      workloads;
      end_to_end;
      per_layer;
    }

let find t name =
  List.find_opt (fun m -> m.name = name) (t.end_to_end @ t.per_layer)

let valid_name name =
  name <> ""
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       name
