(* Per-layer attribution from a trace export.

   A layer table covers one [bench.*] phase span on the benchmark's own
   domain. Its rows are the self times of every span nested in it there
   (the benchmark's own [bench.*] spans and the program's spans it called
   into); [other] is the phase span's own self time, so rows plus other
   equal the phase's wall time. Work the program hands to other domains
   (drain fan-out, shard domains, the server) shows on this domain as
   time spent waiting inside the span that handed it off; its own cost
   is in the per-name totals over every domain ({!totals}). *)

module Json = Cdw_util.Json
module Summary = Cdw_obs.Trace_summary

type table = {
  root : string;
  wall_ms : float;
  rows : (string * float) list;  (** (span name, self ms), largest first *)
  other_ms : float;
}

let events export =
  Option.value ~default:[] (Option.bind (Json.member "traceEvents" export) Json.to_list)

let str key ev = Option.bind (Json.member key ev) Json.to_text
let tid ev = Option.bind (Json.member "tid" ev) Json.to_float

(* The events of [root]'s first span on domain [on], in recorded order
   (positional, so a clamped timestamp shared with a neighbouring span
   cannot pull that span in). *)
let slice export ~on ~root =
  let mine = List.filter (fun ev -> tid ev = Some (float_of_int on)) (events export) in
  let rec skip = function
    | [] -> []
    | ev :: rest when str "ph" ev = Some "B" && str "name" ev = Some root ->
        take 1 [ ev ] rest
    | _ :: rest -> skip rest
  and take depth acc = function
    | [] -> List.rev acc
    | ev :: rest -> (
        let acc = ev :: acc in
        match str "ph" ev with
        | Some "B" -> take (depth + 1) acc rest
        | Some "E" when depth = 1 -> List.rev acc
        | Some "E" -> take (depth - 1) acc rest
        | _ -> take depth acc rest)
  in
  skip mine

let table export ~on ~root =
  match slice export ~on ~root with
  | [] -> None
  | evs -> (
      match Summary.of_json (Json.Array evs) with
      | Error _ -> None
      | Ok r -> (
          match List.partition (fun (row : Summary.row) -> row.name = root) r.rows with
          | [ top ], rest ->
              Some
                {
                  root;
                  wall_ms = top.total_ms;
                  other_ms = top.self_ms;
                  rows =
                    List.sort
                      (fun (_, a) (_, b) -> Float.compare b a)
                      (List.map (fun (row : Summary.row) -> (row.name, row.self_ms)) rest);
                }
          | _ -> None))

(* Rows plus other reproduce the wall time (to float rounding). *)
let sums_to_wall t =
  let sum = List.fold_left (fun acc (_, ms) -> acc +. ms) t.other_ms t.rows in
  Float.abs (sum -. t.wall_ms) <= 1e-6 *. Float.max 1.0 t.wall_ms

let pp ppf t =
  Format.fprintf ppf "@[<v>layer table %s: wall %.3f ms@," t.root t.wall_ms;
  List.iter
    (fun (name, ms) ->
      Format.fprintf ppf "  %-28s %12.3f ms %6.2f%%@," name ms
        (100.0 *. ms /. Float.max 1e-9 t.wall_ms))
    (t.rows @ [ ("other", t.other_ms) ]);
  Format.fprintf ppf "@]"

(* Total duration (ms) of every span name across all domains. *)
let totals export =
  match Summary.of_json export with
  | Error _ -> fun _ -> 0.0
  | Ok r ->
      let tbl = Hashtbl.create 64 in
      List.iter (fun (row : Summary.row) -> Hashtbl.replace tbl row.name row.total_ms) r.rows;
      fun name -> Option.value ~default:0.0 (Hashtbl.find_opt tbl name)
