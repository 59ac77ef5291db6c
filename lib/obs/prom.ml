let sanitize name =
  let ok = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
    | _ -> false
  in
  let s = String.map (fun c -> if ok c then c else '_') name in
  if s = "" then "_"
  else match s.[0] with '0' .. '9' -> "_" ^ s | _ -> s

(* Prometheus values are floats; print them the way its own ecosystem
   does (shortest round-trippable decimal is overkill here — counts are
   integers and bounds are short). *)
let number f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.9g" f

type series_set = {
  s_labels : (string * string) list;
  s_counters : (string * int) list;
  s_gauges : (string * float) list;
  s_histograms : (string * Histogram.t) list;
}

(* A label set rendered inside braces: [extra] appends one more pair
   (the histogram [le] bound). Values we emit never contain quotes or
   backslashes (shard indices, bucket bounds), so no escaping. *)
let label_body labels extra =
  String.concat ","
    (List.map
       (fun (k, v) -> Printf.sprintf "%s=\"%s\"" (sanitize k) v)
       (labels @ extra))

let label_str labels extra =
  match (labels, extra) with
  | [], [] -> ""
  | _ -> "{" ^ label_body labels extra ^ "}"

(* One exposition of several label sets over the same registry shape.
   Prometheus requires all series of one metric name under a single
   TYPE block, so samples are grouped by metric name first, label set
   second. *)
let render_sets sets =
  let buf = Buffer.create 4096 in
  let full name = "cdw_" ^ sanitize name in
  let names project =
    List.sort_uniq compare
      (List.concat_map (fun set -> List.map fst (project set)) sets)
  in
  List.iter
    (fun name ->
      let n = full name in
      Buffer.add_string buf (Printf.sprintf "# TYPE %s counter\n" n);
      List.iter
        (fun set ->
          match List.assoc_opt name set.s_counters with
          | None -> ()
          | Some v ->
              Buffer.add_string buf
                (Printf.sprintf "%s%s %d\n" n (label_str set.s_labels []) v))
        sets)
    (names (fun s -> s.s_counters));
  List.iter
    (fun name ->
      let n = full name in
      Buffer.add_string buf (Printf.sprintf "# TYPE %s gauge\n" n);
      List.iter
        (fun set ->
          match List.assoc_opt name set.s_gauges with
          | None -> ()
          | Some v ->
              Buffer.add_string buf
                (Printf.sprintf "%s%s %s\n" n
                   (label_str set.s_labels [])
                   (number v)))
        sets)
    (names (fun s -> s.s_gauges));
  List.iter
    (fun name ->
      let n = full name ^ "_ms" in
      Buffer.add_string buf (Printf.sprintf "# TYPE %s histogram\n" n);
      List.iter
        (fun set ->
          match List.assoc_opt name set.s_histograms with
          | None -> ()
          | Some h ->
              let labels = set.s_labels in
              let cum = ref 0 in
              List.iter
                (fun (i, c) ->
                  cum := !cum + c;
                  let _, hi = Histogram.bucket_bounds i in
                  let le = if hi = infinity then "+Inf" else number hi in
                  Buffer.add_string buf
                    (Printf.sprintf "%s_bucket%s %d\n" n
                       (label_str labels [ ("le", le) ])
                       !cum))
                (Histogram.nonempty_buckets h);
              if
                (* The spec requires a closing +Inf bucket even when the
                   last non-empty bucket is finite. *)
                match List.rev (Histogram.nonempty_buckets h) with
                | (i, _) :: _ -> snd (Histogram.bucket_bounds i) <> infinity
                | [] -> true
              then
                Buffer.add_string buf
                  (Printf.sprintf "%s_bucket%s %d\n" n
                     (label_str labels [ ("le", "+Inf") ])
                     !cum);
              Buffer.add_string buf
                (Printf.sprintf "%s_sum%s %s\n" n (label_str labels [])
                   (number (Histogram.sum h)));
              Buffer.add_string buf
                (Printf.sprintf "%s_count%s %d\n" n (label_str labels [])
                   (Histogram.count h)))
        sets)
    (names (fun s -> s.s_histograms));
  Buffer.contents buf

let render ?(gauges = []) ~counters ~histograms () =
  render_sets
    [
      {
        s_labels = [];
        s_counters = counters;
        s_gauges = gauges;
        s_histograms = histograms;
      };
    ]

type sample = {
  metric : string;
  labels : (string * string) list;
  value : float;
}

let parse_labels lineno s =
  (* k="v" pairs between the braces; values are quoted, no escapes
     beyond what we emit (le bounds never contain quotes). *)
  let rec loop acc rest =
    let rest = String.trim rest in
    if rest = "" then Ok (List.rev acc)
    else
      match String.index_opt rest '=' with
      | None -> Error (Printf.sprintf "line %d: label without '='" lineno)
      | Some eq -> (
          let k = String.trim (String.sub rest 0 eq) in
          let v = String.sub rest (eq + 1) (String.length rest - eq - 1) in
          let v = String.trim v in
          if String.length v < 2 || v.[0] <> '"' then
            Error (Printf.sprintf "line %d: unquoted label value" lineno)
          else
            match String.index_from_opt v 1 '"' with
            | None -> Error (Printf.sprintf "line %d: unterminated label" lineno)
            | Some close ->
                let value = String.sub v 1 (close - 1) in
                let rest = String.sub v (close + 1) (String.length v - close - 1) in
                let rest =
                  match String.index_opt rest ',' with
                  | Some i -> String.sub rest (i + 1) (String.length rest - i - 1)
                  | None -> rest
                in
                loop ((k, value) :: acc) rest)
  in
  loop [] s

let parse_value lineno s =
  match String.trim s with
  | "+Inf" -> Ok infinity
  | "-Inf" -> Ok neg_infinity
  | v -> (
      match float_of_string_opt v with
      | Some f -> Ok f
      | None -> Error (Printf.sprintf "line %d: bad value %S" lineno v))

let parse text =
  let ( let* ) = Result.bind in
  let lines = String.split_on_char '\n' text in
  let rec loop acc lineno = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
        let next = lineno + 1 in
        let trimmed = String.trim line in
        if trimmed = "" || trimmed.[0] = '#' then loop acc next rest
        else
          let* sample =
            match String.index_opt trimmed '{' with
            | Some open_brace -> (
                let metric = String.sub trimmed 0 open_brace in
                match String.index_opt trimmed '}' with
                | None ->
                    Error (Printf.sprintf "line %d: unterminated label set" lineno)
                | Some close ->
                    let inner =
                      String.sub trimmed (open_brace + 1) (close - open_brace - 1)
                    in
                    let* labels = parse_labels lineno inner in
                    let* value =
                      parse_value lineno
                        (String.sub trimmed (close + 1)
                           (String.length trimmed - close - 1))
                    in
                    Ok { metric; labels; value })
            | None -> (
                match String.index_opt trimmed ' ' with
                | None ->
                    Error (Printf.sprintf "line %d: sample without value" lineno)
                | Some sp ->
                    let metric = String.sub trimmed 0 sp in
                    let* value =
                      parse_value lineno
                        (String.sub trimmed (sp + 1)
                           (String.length trimmed - sp - 1))
                    in
                    Ok { metric; labels = []; value })
          in
          loop (sample :: acc) next rest
  in
  loop [] 1 lines

type lint = { l_samples : int; l_histograms : int }

(* Conformance checks over a parsed exposition: every histogram family
   must have cumulative buckets (non-decreasing by ascending [le]), a
   closing [le="+Inf"] bucket, and matching [_count] / [_sum] series
   under the same label set, with [_count] equal to the +Inf bucket.
   Scrapers (and recording rules like histogram_quantile) silently
   misbehave on any of these, so the lint fails loudly instead. *)
let lint samples =
  let ( let* ) = Result.bind in
  let norm labels =
    List.sort compare (List.filter (fun (k, _) -> k <> "le") labels)
  in
  let key metric labels =
    metric ^ "{"
    ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) (norm labels))
    ^ "}"
  in
  (* Every sample, for _count/_sum lookups. *)
  let values = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace values (key s.metric s.labels) s.value)
    samples;
  (* Bucket samples grouped into histogram families, first-seen order. *)
  let strip_bucket name =
    let n = String.length name in
    if n > 7 && String.sub name (n - 7) 7 = "_bucket" then
      Some (String.sub name 0 (n - 7))
    else None
  in
  let families = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun s ->
      match strip_bucket s.metric with
      | None -> ()
      | Some base ->
          let k = key base s.labels in
          (match Hashtbl.find_opt families k with
          | Some buckets -> Hashtbl.replace families k (s :: buckets)
          | None ->
              order := (k, base, norm s.labels) :: !order;
              Hashtbl.replace families k [ s ]))
    samples;
  let check_family (k, base, labels) =
    let buckets = List.rev (Hashtbl.find families k) in
    let* parsed =
      List.fold_left
        (fun acc s ->
          let* acc = acc in
          match List.assoc_opt "le" s.labels with
          | None -> Error (Printf.sprintf "%s: _bucket sample without le" k)
          | Some "+Inf" -> Ok ((infinity, s.value) :: acc)
          | Some le -> (
              match float_of_string_opt le with
              | Some f -> Ok ((f, s.value) :: acc)
              | None ->
                  Error (Printf.sprintf "%s: unparseable le=%S" k le)))
        (Ok []) buckets
    in
    let sorted = List.sort (fun (a, _) (b, _) -> compare a b) parsed in
    let rec cumulative = function
      | (le1, v1) :: ((_, v2) :: _ as rest) ->
          if v2 < v1 then
            Error
              (Printf.sprintf
                 "%s: buckets not cumulative (value drops after le=%g)" k le1)
          else cumulative rest
      | _ -> Ok ()
    in
    let* () = cumulative sorted in
    let* inf_v =
      match List.find_opt (fun (le, _) -> le = infinity) sorted with
      | Some (_, v) -> Ok v
      | None -> Error (Printf.sprintf "%s: no le=\"+Inf\" bucket" k)
    in
    let* count =
      match Hashtbl.find_opt values (key (base ^ "_count") labels) with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "%s: missing %s_count" k base)
    in
    let* () =
      if count = inf_v then Ok ()
      else
        Error
          (Printf.sprintf "%s: _count (%g) <> le=\"+Inf\" bucket (%g)" k
             count inf_v)
    in
    match Hashtbl.find_opt values (key (base ^ "_sum") labels) with
    | Some _ -> Ok ()
    | None -> Error (Printf.sprintf "%s: missing %s_sum" k base)
  in
  let* () =
    List.fold_left
      (fun acc fam ->
        let* () = acc in
        check_family fam)
      (Ok ()) (List.rev !order)
  in
  Ok { l_samples = List.length samples; l_histograms = Hashtbl.length families }
