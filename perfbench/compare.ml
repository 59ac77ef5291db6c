(* Compare benchmark results of two commits, or measure the run-to-run
   spread of one.

     compare.exe PARENT_DIR CHANGE_DIR
     compare.exe DIR
     compare.exe --repeat N OUT_DIR

   Run from the repository root (it reads BENCHMARK.json there, and
   --repeat runs the built _build/default/perfbench/cdw_bench.exe).

   A result directory holds DIR/<workload>/<seed>.json, each the
   standard output of one cdw_bench run (its last line is the result
   object). Given one directory, compare prints each metric's median,
   quartiles and spread (interquartile range over median) beside its
   declared bound — the measurement the bounds in BENCHMARK.json rest
   on; --repeat first fills that directory by running cdw_bench N times
   per declared workload, seeds 1..N, at the declared run length,
   untraced.

   Comparing prints, per (workload, metric), each side's median and
   quartiles and the share of same-seed pairs the change wins, and a
   verdict:
   - improved: the change wins at least 9 in 10 pairs and the medians
     differ, in its favour, by more than the parent's interquartile
     range;
   - unresolved: the parent's own spread is wider than the metric's
     bound, so the bound cannot be checked — unless every change run
     beats every parent run;
   - worse: the change's median is worse than the parent's by more than
     the bound (per-layer metrics, which have no bound: the parent wins
     9 in 10 pairs by more than its interquartile range);
   - unchanged: none of these.
   Quartiles follow Python's statistics.quantiles(values, n=4). *)

module Json = Cdw_util.Json

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("compare: " ^ m);
      exit 2)
    fmt

(* statistics.quantiles(data, n=4), method 'exclusive'. *)
let quartiles values =
  let a = Array.of_list values in
  Array.sort Float.compare a;
  let ld = Array.length a in
  if ld = 0 then (nan, nan)
  else if ld = 1 then (a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 3)

let median = Phases.median

(* ---------------------------------------------------------------- *)
(* Reading result directories                                         *)

type run = { correct : bool; metrics : (string * float) list }

let read_run file =
  let lines =
    In_channel.with_open_bin file In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> String.length l > 0 && l.[0] = '{')
  in
  match List.rev lines with
  | [] -> None
  | last :: _ -> (
      match Json.parse last with
      | Error _ -> None
      | Ok j ->
          let metrics =
            match Json.member "metrics" j with
            | Some (Json.Object fields) ->
                List.filter_map
                  (fun (name, v) ->
                    Option.map (fun x -> (name, x))
                      (Option.bind (Json.member "value" v) Json.to_float))
                  fields
            | _ -> []
          in
          Some { correct = Json.member "correct" j = Some (Json.Bool true); metrics })

(* workload → (seed file name, run) list *)
let read_dir dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then die "%s: not a directory" dir;
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter_map (fun w ->
         let wd = Filename.concat dir w in
         if not (Sys.is_directory wd) then None
         else
           let runs =
             Sys.readdir wd |> Array.to_list |> List.sort compare
             |> List.filter_map (fun f ->
                    if Filename.check_suffix f ".json" then
                      Option.map (fun r -> (f, r)) (read_run (Filename.concat wd f))
                    else None)
           in
           Some (w, runs))

let values runs name = List.filter_map (fun (_, r) -> List.assoc_opt name r.metrics) runs

let metric_names runs =
  List.sort_uniq compare (List.concat_map (fun (_, r) -> List.map fst r.metrics) runs)

let direction declared name =
  match Declared.find declared name with
  | Some m -> (m.Declared.higher_is_better, m.Declared.bound, m.Declared.unit_)
  | None -> (false, None, "?")

(* ---------------------------------------------------------------- *)
(* Spread of one directory                                            *)

let spread_table declared dir =
  let bad = ref 0 in
  List.iter
    (fun (w, runs) ->
      let incorrect = List.length (List.filter (fun (_, r) -> not r.correct) runs) in
      Printf.printf "%s: %d runs%s\n" w (List.length runs)
        (if incorrect > 0 then Printf.sprintf ", %d INCORRECT" incorrect else "");
      List.iter
        (fun name ->
          let vs = values runs name in
          let _, bound, unit_ = direction declared name in
          let med = median vs in
          let q1, q3 = quartiles vs in
          let spread = if med = 0.0 then 0.0 else (q3 -. q1) /. Float.abs med in
          let verdict =
            match bound with
            | Some b when spread > b /. 3.0 ->
                incr bad;
                Printf.sprintf "bound %.2f  spread/bound %.2f  TOO NOISY" b (spread /. b)
            | Some b -> Printf.sprintf "bound %.2f  spread/bound %.2f" b (spread /. b)
            | None -> ""
          in
          Printf.printf "  %-28s %-6s median %-14.6g q1 %-14.6g q3 %-14.6g spread %6.3f  %s\n"
            name unit_ med q1 q3 spread verdict)
        (metric_names runs))
    (read_dir dir);
  !bad

(* ---------------------------------------------------------------- *)
(* Parent vs change                                                   *)

let compare_dirs declared parent change =
  let p = read_dir parent and c = read_dir change in
  let worse = ref 0 in
  List.iter
    (fun (w, pruns) ->
      match List.assoc_opt w c with
      | None -> Printf.printf "%s: no change runs\n" w
      | Some cruns ->
          let bad side runs =
            let n = List.length (List.filter (fun (_, r) -> not r.correct) runs) in
            if n > 0 then Printf.printf "%s: %d %s run(s) INCORRECT\n" w n side
          in
          bad "parent" pruns;
          bad "change" cruns;
          Printf.printf "%s (%d parent, %d change runs)\n" w (List.length pruns)
            (List.length cruns);
          List.iter
            (fun name ->
              let higher, bound, unit_ = direction declared name in
              let better a b = if higher then a > b else a < b in
              let pv = values pruns name and cv = values cruns name in
              let pairs =
                List.filter_map
                  (fun (f, pr) ->
                    match (List.assoc_opt f cruns, List.assoc_opt name pr.metrics) with
                    | Some cr, Some x ->
                        Option.map (fun y -> (x, y)) (List.assoc_opt name cr.metrics)
                    | _ -> None)
                  pruns
              in
              let n = List.length pairs in
              let c_wins = List.length (List.filter (fun (x, y) -> better y x) pairs) in
              let p_wins = List.length (List.filter (fun (x, y) -> better x y) pairs) in
              let pm = median pv and cm = median cv in
              let pq1, pq3 = quartiles pv and cq1, cq3 = quartiles cv in
              let iqr = pq3 -. pq1 in
              let diff = Float.abs (cm -. pm) in
              let nine_tenths wins = n > 0 && float_of_int wins >= 0.9 *. float_of_int n in
              let all_better =
                pv <> [] && cv <> []
                && List.for_all (fun y -> List.for_all (fun x -> better y x) pv) cv
              in
              let verdict =
                if n = 0 then "unresolved"
                else if nine_tenths c_wins && better cm pm && diff > iqr then "improved"
                else
                  match bound with
                  | Some b ->
                      if iqr > b *. Float.abs pm && not all_better then "unresolved"
                      else if better pm cm && diff > b *. Float.abs pm then "worse"
                      else "unchanged"
                  | None ->
                      if nine_tenths p_wins && better pm cm && diff > iqr then "worse"
                      else "unchanged"
              in
              if verdict = "worse" then incr worse;
              Printf.printf
                "  %-28s %-6s parent %-12.6g [%-12.6g %-12.6g]  change %-12.6g \
                 [%-12.6g %-12.6g]  %+7.2f%%  wins %d/%d  %s\n"
                name unit_ pm pq1 pq3 cm cq1 cq3
                (if pm = 0.0 then 0.0 else 100.0 *. (cm -. pm) /. Float.abs pm)
                c_wins n verdict)
            (metric_names pruns))
    p;
  !worse

(* ---------------------------------------------------------------- *)
(* Repeated runs                                                      *)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Unix.mkdir d 0o755
  end

let bench_exe = "_build/default/perfbench/cdw_bench.exe"

let repeat ~n ~seconds ~workloads out =
  List.iter
    (fun w ->
      let wd = Filename.concat out w in
      mkdir_p wd;
      for seed = 1 to n do
        let file = Filename.concat wd (Printf.sprintf "%03d.json" seed) in
        let fd = Unix.openfile file [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
        let args =
          [| bench_exe; "--workload"; w; "--seed"; string_of_int seed;
             "--seconds"; string_of_int seconds; "--trace"; "0" |]
        in
        let t0 = Unix.gettimeofday () in
        let pid = Unix.create_process bench_exe args Unix.stdin fd Unix.stderr in
        let _, status = Unix.waitpid [] pid in
        Unix.close fd;
        Printf.eprintf "%s seed %d: %s in %.1f s\n%!" w seed
          (match status with
          | Unix.WEXITED 0 -> "ok"
          | Unix.WEXITED c -> Printf.sprintf "exit %d" c
          | _ -> "killed")
          (Unix.gettimeofday () -. t0)
      done)
    workloads

let () =
  let repeat_n = ref None and dirs = ref [] in
  let rec parse = function
    | [] -> ()
    | "--repeat" :: k :: rest -> repeat_n := int_of_string_opt k; parse rest
    | d :: rest when String.length d > 0 && d.[0] <> '-' -> dirs := !dirs @ [ d ]; parse rest
    | arg :: _ -> die "unknown argument %S" arg
  in
  parse (List.tl (Array.to_list Sys.argv));
  let d = match Declared.load "BENCHMARK.json" with Ok d -> d | Error e -> die "%s" e in
  match (!repeat_n, !dirs) with
  | Some n, [ out ] when n >= 1 ->
      repeat ~n ~seconds:d.Declared.run_seconds ~workloads:d.Declared.workloads out;
      exit (if spread_table d out > 0 then 1 else 0)
  | None, [ dir ] -> exit (if spread_table d dir > 0 then 1 else 0)
  | None, [ parent; change ] -> exit (if compare_dirs d parent change > 0 then 1 else 0)
  | _ ->
      die
        "usage: compare.exe PARENT_DIR CHANGE_DIR\n\
        \       compare.exe DIR\n\
        \       compare.exe --repeat N OUT_DIR"
