module Reach = Cdw_graph.Reach

type pair = { source : int; target : int }
type t = pair list

let compare_pair ((s, t) : int * int) (s', t') =
  let c = Int.compare s s' in
  if c <> 0 then c else Int.compare t t'

let valid_pair wf (s, t) =
  let n = Workflow.n_vertices wf in
  s >= 0 && s < n && t >= 0 && t < n
  &&
  match (Workflow.kind wf s, Workflow.kind wf t) with
  | Workflow.User, Workflow.Purpose -> true
  | _ -> false

(* A strictly increasing list holds no duplicate, so [make] builds no
   table for one: [Incremental.update] sorts its additions first, and a
   single pair is sorted. *)
let rec strictly_sorted = function
  | p :: (q :: _ as rest) -> compare_pair p q < 0 && strictly_sorted rest
  | _ -> true

(* Whether [p] was seen before, recording it if not. *)
let duplicate seen p =
  match seen with
  | None -> false
  | Some tbl ->
      Hashtbl.mem tbl p
      || begin
           Hashtbl.add tbl p ();
           false
         end

let make wf raw =
  let seen = if strictly_sorted raw then None else Some (Hashtbl.create 16) in
  let n = Workflow.n_vertices wf in
  let rec loop acc = function
    | [] -> Ok (List.rev acc)
    | ((s, t) as p) :: rest ->
        (* Ids straight from a request may never have named a vertex;
           that is an error reply, not an exception. *)
        if s < 0 || s >= n then Error (Printf.sprintf "unknown vertex id %d" s)
        else if t < 0 || t >= n then
          Error (Printf.sprintf "unknown vertex id %d" t)
        else if duplicate seen p then
          Error
            (Printf.sprintf "duplicate constraint (%s, %s)" (Workflow.name wf s)
               (Workflow.name wf t))
        else if valid_pair wf p then
          loop ({ source = s; target = t } :: acc) rest
        else if Workflow.kind wf s <> Workflow.User then
          Error
            (Printf.sprintf "constraint source %s is not a user vertex"
               (Workflow.name wf s))
        else
          Error
            (Printf.sprintf "constraint target %s is not a purpose vertex"
               (Workflow.name wf t))
  in
  loop [] raw

let make_exn wf raw =
  match make wf raw with Ok t -> t | Error msg -> invalid_arg msg

let of_names wf raw =
  let rec resolve acc = function
    | [] -> make wf (List.rev acc)
    | (sn, tn) :: rest -> (
        match (Workflow.vertex_of_name wf sn, Workflow.vertex_of_name wf tn) with
        | Some s, Some t -> resolve ((s, t) :: acc) rest
        | None, _ -> Error (Printf.sprintf "unknown vertex %S" sn)
        | _, None -> Error (Printf.sprintf "unknown vertex %S" tn))
  in
  resolve [] raw

let pairs t = List.map (fun { source; target } -> (source, target)) t
let size = List.length

let violated wf t =
  let g = Workflow.graph wf in
  List.filter (fun { source; target } -> Reach.exists_path g source target) t

let satisfied wf t = violated wf t = []

let pp wf ppf t =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
    (fun ppf { source; target } ->
      Format.fprintf ppf "%s ↛ %s" (Workflow.name wf source)
        (Workflow.name wf target))
    ppf t
