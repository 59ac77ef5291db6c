(* Benchmark harness.

   Two layers:
   1. A bechamel micro-suite with one Test.make per paper table/figure,
      benchmarking that experiment's computational kernel on a pinned
      representative instance (stable, seconds to run).
   2. The full experiment reproduction (Cdw_expers.Experiments): every
      table and figure of §7 plus the ablations, printed as tables and
      archived as CSV under results/.

   Usage:
     dune exec bench/main.exe                 # micro suite + quick reproduction
     dune exec bench/main.exe -- --full       # paper-scale sweeps (hours)
     dune exec bench/main.exe -- --micro-only
     dune exec bench/main.exe -- fig5a table3 # selected experiments only
                                              # (names: Experiments.registry) *)

open Bechamel
open Toolkit
module Algorithms = Cdw_core.Algorithms
module Utility = Cdw_core.Utility
module Generator = Cdw_workload.Generator
module Gen_params = Cdw_workload.Gen_params
module Dataset2 = Cdw_workload.Dataset2
module E = Cdw_expers.Experiments

(* ------------------------------------------------------------------ *)
(* Micro-suite instances: pinned seeds, modest sizes.                   *)

let inst_1a = lazy (Generator.generate ~seed:1 (Gen_params.dataset1a ~n_constraints:10))
let inst_1a_small = lazy (Generator.generate ~seed:2 (Gen_params.dataset1a ~n_constraints:3))
let inst_1b = lazy (Generator.generate ~seed:3 (Gen_params.dataset1b ~n_constraints:10))
let inst_1c = lazy (Generator.generate ~seed:4 (Gen_params.dataset1c ~n_constraints:10))
let inst_d2 = lazy (Dataset2.lengthen (Dataset2.base ()) ~added:200)
let inst_d3 = lazy (Generator.generate ~seed:5 (Gen_params.dataset3 ~n_vertices:2000))

let run_algo name (instance : Generator.t Lazy.t) () =
  let i = Lazy.force instance in
  ignore
    (Algorithms.solve
       ~options:{ Algorithms.Options.default with max_paths = Some 100_000 }
       name i.Generator.workflow i.Generator.constraints)

let micro_tests =
  [
    (* Table 1 compares the algorithm classes; benchmark each algorithm
       on the same dataset-1a instance. *)
    Test.make ~name:"table1/remove-random-edge"
      (Staged.stage (run_algo Algorithms.Remove_random_edge inst_1a));
    Test.make ~name:"table1/remove-first-edge"
      (Staged.stage (run_algo Algorithms.Remove_first_edge inst_1a));
    Test.make ~name:"table1/remove-min-cuts"
      (Staged.stage (run_algo Algorithms.Remove_min_cuts inst_1a));
    Test.make ~name:"table1/remove-min-mc"
      (Staged.stage (run_algo Algorithms.Remove_min_mc inst_1a));
    Test.make ~name:"table1/brute-force"
      (Staged.stage (run_algo Algorithms.Brute_force inst_1a_small));
    (* Table 2: the dataset generator itself. *)
    Test.make ~name:"table2/generate-1a"
      (Staged.stage (fun () ->
           ignore (Generator.generate ~seed:11 (Gen_params.dataset1a ~n_constraints:10))));
    Test.make ~name:"table2/generate-1c"
      (Staged.stage (fun () ->
           ignore (Generator.generate ~seed:12 (Gen_params.dataset1c ~n_constraints:10))));
    (* Figure 5a/5b/5c kernels: RemoveMinMC on sparse-small, sparse-large
       and dense graphs. *)
    Test.make ~name:"fig5a/minmc-100v"
      (Staged.stage (run_algo Algorithms.Remove_min_mc inst_1a));
    Test.make ~name:"fig5b/minmc-1000v"
      (Staged.stage (run_algo Algorithms.Remove_min_mc inst_1b));
    Test.make ~name:"fig5c/minmc-dense"
      (Staged.stage (run_algo Algorithms.Remove_min_mc inst_1c));
    (* Figure 6 reports utilities: its kernel is the valuation/utility
       recomputation after removals. *)
    Test.make ~name:"fig6/utility-total-1b"
      (Staged.stage (fun () ->
           ignore (Utility.total (Lazy.force inst_1b).Generator.workflow)));
    (* Table 3's second column: exhaustive search on few constraints. *)
    Test.make ~name:"table3/brute-force-n3"
      (Staged.stage (run_algo Algorithms.Brute_force inst_1a_small));
    (* Figure 7's x-axis: enumerating the paths to break. *)
    Test.make ~name:"fig7/path-enumeration-dense"
      (Staged.stage (fun () ->
           ignore (Generator.n_constraint_paths ~max_paths:100_000 (Lazy.force inst_1c))));
    (* Figure 8: long-path instances (dataset 2). *)
    Test.make ~name:"fig8/minmc-long-paths"
      (Staged.stage (run_algo Algorithms.Remove_min_mc inst_d2));
    (* Figure 9: large-graph mincut (dataset 3). *)
    Test.make ~name:"fig9/min-cuts-2000v"
      (Staged.stage (run_algo Algorithms.Remove_min_cuts inst_d3));
    (* Ablation: branch-and-bound exact search. *)
    Test.make ~name:"ablation/brute-force-bnb"
      (Staged.stage (run_algo Algorithms.Brute_force_bnb inst_1a_small));
    (* Ablation: incremental valuation tracker (the default) vs full
       recomputation per candidate in the exhaustive search. *)
    Test.make ~name:"ablation/bf-eval-tracker"
      (Staged.stage (run_algo Algorithms.Brute_force inst_1a_small));
    Test.make ~name:"ablation/bf-eval-recompute"
      (Staged.stage (fun () ->
           let i = Lazy.force inst_1a_small in
           ignore
             (Algorithms.brute_force ~max_paths:100_000
                ~utility:(fun wf -> Utility.total wf)
                i.Generator.workflow i.Generator.constraints)));
  ]

let run_micro () =
  print_endline "== bechamel micro-suite (one kernel per table/figure) ==";
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None () in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results =
    List.concat_map
      (fun test ->
        let raw = Benchmark.all cfg [ Instance.monotonic_clock ] test in
        let analyzed = Analyze.all ols Instance.monotonic_clock raw in
        Hashtbl.fold (fun name v acc -> (name, v) :: acc) analyzed [])
      micro_tests
  in
  let fmt_ns ns =
    if ns >= 1e9 then Printf.sprintf "%8.3f s " (ns /. 1e9)
    else if ns >= 1e6 then Printf.sprintf "%8.3f ms" (ns /. 1e6)
    else if ns >= 1e3 then Printf.sprintf "%8.3f us" (ns /. 1e3)
    else Printf.sprintf "%8.1f ns" ns
  in
  List.iter
    (fun (name, ols_result) ->
      let estimate =
        match Analyze.OLS.estimates ols_result with
        | Some [ ns ] -> fmt_ns ns
        | Some _ | None -> "n/a"
      in
      Printf.printf "  %-34s %s/run\n" name estimate)
    (List.sort compare results);
  print_newline ()

(* ------------------------------------------------------------------ *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let full = List.mem "--full" args in
  let micro_only = List.mem "--micro-only" args in
  let skip_micro = List.mem "--skip-micro" args in
  let profile = if full then Cdw_expers.Profile.full else Cdw_expers.Profile.quick in
  let selected =
    List.filter (fun a -> not (String.length a > 1 && a.[0] = '-')) args
  in
  if not skip_micro then run_micro ();
  if micro_only then ()
  else if selected = [] then E.run_all profile
  else
    List.iter
      (fun name ->
        match List.assoc_opt name E.registry with
        | Some run -> run ~results_dir:"results" profile
        | None -> Printf.eprintf "unknown experiment %S (skipped)\n" name)
      selected
