module Algorithms = Cdw_core.Algorithms
module Generator = Cdw_workload.Generator
module Gen_params = Cdw_workload.Gen_params
module Dataset2 = Cdw_workload.Dataset2
module Stats = Cdw_util.Stats

type dataset1 = D1a | D1b | D1c

let dataset1_label = function D1a -> "1a" | D1b -> "1b" | D1c -> "1c"

let dataset1_params profile ds ~n_constraints =
  match ds with
  | D1a -> Gen_params.dataset1a ~n_constraints
  | D1b ->
      {
        (Gen_params.dataset1b ~n_constraints) with
        Gen_params.n_vertices = profile.Profile.dataset1b_vertices;
      }
  | D1c -> Gen_params.dataset1c ~n_constraints

(* Deterministic, collision-free seeds per (experiment, point, attempt). *)
let seed ~exp ~point ~attempt = (exp * 1_000_003) + (point * 1_009) + attempt

let heuristics =
  [
    Algorithms.Remove_random_edge;
    Algorithms.Remove_first_edge;
    Algorithms.Remove_min_cuts;
    Algorithms.Remove_min_mc;
  ]

let short_name = function
  | Algorithms.Remove_random_edge -> "RandomEdge"
  | Algorithms.Remove_first_edge -> "FirstEdge"
  | Algorithms.Remove_last_edge -> "LastEdge"
  | Algorithms.Remove_min_cuts -> "MinCuts"
  | Algorithms.Remove_min_mc -> "MinMC"
  | Algorithms.Brute_force -> "BruteForce"
  | Algorithms.Brute_force_bnb -> "BruteForceBnB"
  | Algorithms.Exact_ilp -> "ExactILP"
  | Algorithms.Approx_lp -> "ApproxLP"

(* ------------------------------------------------------------------ *)
(* Figures 5 and 6: |N| sweep on datasets 1a/1b/1c.                     *)

let time_series ~algos ~data =
  (* One chart series per algorithm from (x, algo, point) samples. *)
  List.filter_map
    (fun algo ->
      let points =
        List.filter_map
          (fun (x, a, p) ->
            if a = algo then
              Option.map (fun s -> (x, s.Stats.mean)) p.Runner.time
            else None)
          data
      in
      if points = [] then None
      else Some { Chart.label = short_name algo; points })
    algos

let utility_series ~algos ~data =
  List.filter_map
    (fun algo ->
      let points =
        List.filter_map
          (fun (x, a, p) ->
            if a = algo then
              Option.map (fun s -> (x, s.Stats.mean)) p.Runner.utility
            else None)
          data
      in
      if points = [] then None
      else Some { Chart.label = short_name algo; points })
    algos

let fig5_6 ?charts_dir profile ds =
  let exp = match ds with D1a -> 1 | D1b -> 2 | D1c -> 3 in
  let algos = heuristics @ [ Algorithms.Brute_force ] in
  (* Stop attempting an algorithm once a whole point timed out: the
     sweeps are monotone in difficulty. *)
  let dead = Hashtbl.create 8 in
  let point n algo =
    if Hashtbl.mem dead algo then Runner.skip
    else if
      algo = Algorithms.Brute_force
      && n > profile.Profile.brute_force_max_constraints
    then Runner.skip
    else begin
      let params = dataset1_params profile ds ~n_constraints:n in
      let p =
        Runner.measure ~profile (fun attempt ->
            let instance =
              Generator.generate ~seed:(seed ~exp ~point:n ~attempt) params
            in
            Runner.once ~profile algo instance)
      in
      if p.Runner.time = None && p.Runner.runs > 0 then
        Hashtbl.replace dead algo ();
      p
    end
  in
  let data =
    List.concat_map
      (fun n -> List.map (fun algo -> (float_of_int n, algo, point n algo)) algos)
      profile.Profile.constraint_counts
  in
  let rows =
    List.map
      (fun (n, algo, p) ->
        (int_of_float n, algo, Runner.pp_time p, Runner.pp_utility p))
      data
  in
  let label = dataset1_label ds in
  let letter = String.sub label 1 1 in
  (match charts_dir with
  | None -> ()
  | Some dir ->
      ignore
        (Chart.write ~dir
           ~name:(Printf.sprintf "fig5%s" letter)
           ~log_y:true ~x_label:"|N|" ~y_label:"runtime (ms)"
           ~title:(Printf.sprintf "Figure 5%s (dataset %s)" letter label)
           (time_series ~algos ~data));
      ignore
        (Chart.write ~dir
           ~name:(Printf.sprintf "fig6%s" letter)
           ~x_label:"|N|" ~y_label:"utility % of original"
           ~title:(Printf.sprintf "Figure 6%s (dataset %s)" letter label)
           (utility_series ~algos ~data)));
  let time_table =
    {
      Table.title = Printf.sprintf "Figure 5%s: |N| vs runtime (dataset %s)" letter label;
      header = [ "|N|"; "algorithm"; "runtime" ];
      rows =
        List.map
          (fun (n, algo, time, _) -> [ string_of_int n; short_name algo; time ])
          rows;
    }
  in
  let utility_table =
    {
      Table.title =
        Printf.sprintf "Figure 6%s: |N| vs utility %% of original (dataset %s)"
          letter label;
      header = [ "|N|"; "algorithm"; "utility % of original" ];
      rows =
        List.map
          (fun (n, algo, _, utility) ->
            [ string_of_int n; short_name algo; utility ])
          rows;
    }
  in
  (time_table, utility_table)

(* ------------------------------------------------------------------ *)
(* Table 3: RemoveMinMC vs BruteForce on identical dataset-1a graphs.   *)

let table3 profile =
  let counts =
    List.filter
      (fun n -> n <= profile.Profile.brute_force_max_constraints)
      [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
  in
  let rows =
    List.map
      (fun n ->
        let params = Gen_params.dataset1a ~n_constraints:n in
        let minmc = ref [] and bf = ref [] in
        let attempts = ref 0 in
        while
          List.length !bf < profile.Profile.min_runs
          && !attempts < profile.Profile.max_runs
        do
          let instance =
            Generator.generate ~seed:(seed ~exp:4 ~point:n ~attempt:!attempts)
              params
          in
          (match Runner.once ~profile Algorithms.Remove_min_mc instance with
          | Some s -> minmc := s.Runner.utility_pct :: !minmc
          | None -> ());
          (match Runner.once ~profile Algorithms.Brute_force instance with
          | Some s -> bf := s.Runner.utility_pct :: !bf
          | None -> ());
          incr attempts
        done;
        let cell samples =
          match samples with
          | [] -> "timeout"
          | xs ->
              let s = Stats.summarize xs in
              Printf.sprintf "%.2f ±%.2f" s.Stats.mean s.Stats.se
        in
        [ string_of_int n; cell !minmc; cell !bf ])
      counts
  in
  {
    Table.title = "Table 3: utility % of original, RemoveMinMC vs BruteForce (dataset 1a)";
    header = [ "|N|"; "RemoveMinMC %"; "BruteForce %" ];
    rows;
  }

(* ------------------------------------------------------------------ *)
(* Figure 7: paths-to-break vs runtime and utility on dataset 1c.       *)

let fig7 profile =
  let samples = ref [] in
  List.iter
    (fun n ->
      for attempt = 0 to 1 do
        let params = Gen_params.dataset1c ~n_constraints:n in
        let instance =
          Generator.generate ~seed:(seed ~exp:5 ~point:n ~attempt) params
        in
        let n_paths =
          Generator.n_constraint_paths ~max_paths:profile.Profile.max_paths
            instance
        in
        let cells =
          List.map
            (fun algo ->
              match Runner.once ~profile algo instance with
              | Some s ->
                  ( Printf.sprintf "%.1f" s.Runner.time_ms,
                    Printf.sprintf "%.1f" s.Runner.utility_pct )
              | None -> ("timeout", "timeout"))
            heuristics
        in
        samples := (n_paths, n, cells) :: !samples
      done)
    profile.Profile.constraint_counts;
  let sorted =
    List.sort (fun (a, _, _) (b, _, _) -> compare a b) !samples
  in
  {
    Table.title = "Figure 7: paths to break vs runtime (ms) and utility % (dataset 1c)";
    header =
      "paths" :: "|N|"
      :: List.concat_map
           (fun a -> [ short_name a ^ " ms"; short_name a ^ " %" ])
           heuristics;
    rows =
      List.map
        (fun (paths, n, cells) ->
          string_of_int paths :: string_of_int n
          :: List.concat_map (fun (t, u) -> [ t; u ]) cells)
        sorted;
  }

(* ------------------------------------------------------------------ *)
(* Figure 8: path length vs runtime on dataset 2.                       *)

let fig8 ?charts_dir profile =
  let steps = Dataset2.steps ~n_steps:profile.Profile.dataset2_steps () in
  let algos = heuristics @ [ Algorithms.Brute_force ] in
  let data =
    List.concat_map
      (fun (instance : Generator.t) ->
        let mean_len =
          Generator.mean_constraint_path_length
            ~max_paths:profile.Profile.max_paths instance
        in
        List.map
          (fun algo ->
            let p =
              Runner.measure ~profile (fun _ -> Runner.once ~profile algo instance)
            in
            (instance, mean_len, algo, p))
          algos)
      steps
  in
  (match charts_dir with
  | None -> ()
  | Some dir ->
      let chart_data = List.map (fun (_, len, a, p) -> (len, a, p)) data in
      ignore
        (Chart.write ~dir ~name:"fig8" ~log_y:true ~x_label:"mean path length"
           ~y_label:"runtime (ms)" ~title:"Figure 8 (dataset 2)"
           (time_series ~algos ~data:chart_data)));
  let rows =
    List.map
      (fun (instance : Generator.t) ->
        let n_vertices = Cdw_core.Workflow.n_vertices instance.Generator.workflow in
        let mean_len, cells =
          List.fold_left
            (fun (_, acc) (i, len, _, p) ->
              if i == instance then (len, Runner.pp_time p :: acc) else (len, acc))
            (0.0, []) data
          |> fun (len, acc) -> (len, List.rev acc)
        in
        (string_of_int n_vertices :: Printf.sprintf "%.1f" mean_len :: cells))
      steps
  in
  {
    Table.title = "Figure 8: path length vs runtime (dataset 2, |N|=10, constant path count)";
    header = "|V|" :: "mean path len" :: List.map short_name algos;
    rows;
  }

(* ------------------------------------------------------------------ *)
(* Figure 9: graph size vs runtime and utility on dataset 3.            *)

let fig9 ?charts_dir profile =
  let algos = heuristics @ [ Algorithms.Brute_force ] in
  let rows =
    List.map
      (fun size ->
        let params = Gen_params.dataset3 ~n_vertices:size in
        let points =
          List.map
            (fun algo ->
              Runner.measure ~profile (fun attempt ->
                  let instance =
                    Generator.generate
                      ~seed:(seed ~exp:6 ~point:size ~attempt)
                      params
                  in
                  Runner.once ~profile algo instance))
            algos
        in
        (size, points))
      profile.Profile.dataset3_sizes
  in
  (match charts_dir with
  | None -> ()
  | Some dir ->
      let data =
        List.concat_map
          (fun (size, points) ->
            List.map2 (fun a p -> (float_of_int size, a, p)) algos points)
          rows
      in
      ignore
        (Chart.write ~dir ~name:"fig9_time" ~log_y:true ~x_label:"|V|"
           ~y_label:"runtime (ms)" ~title:"Figure 9, runtime (dataset 3)"
           (time_series ~algos ~data));
      ignore
        (Chart.write ~dir ~name:"fig9_utility" ~x_label:"|V|"
           ~y_label:"utility % of original"
           ~title:"Figure 9, utility (dataset 3)"
           (utility_series ~algos ~data)));
  let time_table =
    {
      Table.title = "Figure 9 (runtime): graph size vs runtime (dataset 3, |N|=5)";
      header = "|V|" :: List.map short_name algos;
      rows =
        List.map
          (fun (size, points) ->
            string_of_int size :: List.map Runner.pp_time points)
          rows;
    }
  in
  let utility_table =
    {
      Table.title = "Figure 9 (utility): graph size vs utility % (dataset 3, |N|=5)";
      header = "|V|" :: List.map short_name algos;
      rows =
        List.map
          (fun (size, points) ->
            string_of_int size :: List.map Runner.pp_utility points)
          rows;
    }
  in
  (time_table, utility_table)

(* ------------------------------------------------------------------ *)
(* Ablations.                                                           *)

let ablation_bnb profile =
  let counts = [ 2; 4; 6; 8; 10 ] in
  let rows =
    List.map
      (fun n ->
        let params = Gen_params.dataset1a ~n_constraints:n in
        let instance =
          Generator.generate ~seed:(seed ~exp:7 ~point:n ~attempt:0) params
        in
        let run algo = Runner.once ~profile algo instance in
        let cell = function
          | Some s ->
              ( Printf.sprintf "%.1f" s.Runner.time_ms,
                string_of_int s.Runner.candidates,
                Printf.sprintf "%.2f" s.Runner.utility_pct )
          | None -> ("timeout", "-", "-")
        in
        let bf_t, bf_c, bf_u = cell (run Algorithms.Brute_force) in
        let bnb_t, bnb_c, bnb_u = cell (run Algorithms.Brute_force_bnb) in
        [ string_of_int n; bf_t; bf_c; bf_u; bnb_t; bnb_c; bnb_u ])
      counts
  in
  {
    Table.title = "Ablation: BruteForce vs branch-and-bound exact search (dataset 1a)";
    header =
      [
        "|N|"; "BF ms"; "BF candidates"; "BF util%"; "BnB ms"; "BnB candidates";
        "BnB util%";
      ];
    rows;
  }

let ablation_minmc_backends profile =
  (* One RemoveMinMC solve per backend: unbounded, or the exact ILP
     under a 2 s budget with the greedy multicut past it. *)
  let backends =
    [
      ("ilp", Cdw_cut.Multicut.Ilp, infinity);
      ("bnb", Cdw_cut.Multicut.Bnb, infinity);
      ("greedy", Cdw_cut.Multicut.Greedy, infinity);
      ("lp-round", Cdw_cut.Multicut.Lp_rounding, infinity);
      ("auto", Cdw_cut.Multicut.Ilp, 2_000.0);
    ]
  in
  let counts = [ 5; 10; 20 ] in
  let rows =
    List.concat_map
      (fun n ->
        let params = Gen_params.dataset1c ~n_constraints:n in
        let instance =
          Generator.generate ~seed:(seed ~exp:8 ~point:n ~attempt:0) params
        in
        List.map
          (fun (label, backend, budget_ms) ->
            let solver ~deadline (i : Generator.t) =
              Cdw_core.Algorithms.solve
                ~options:
                  {
                    Cdw_core.Algorithms.Options.default with
                    backend;
                    solver_budget_ms = Some budget_ms;
                    deadline;
                  }
                Cdw_core.Algorithms.Remove_min_mc i.Generator.workflow
                i.Generator.constraints
            in
            match Runner.once_custom ~profile solver instance with
            | Some s ->
                [
                  string_of_int n;
                  label;
                  Printf.sprintf "%.1f" s.Runner.time_ms;
                  Printf.sprintf "%.2f" s.Runner.utility_pct;
                ]
            | None -> [ string_of_int n; label; "timeout"; "-" ])
          backends)
      counts
  in
  {
    Table.title = "Ablation: multicut back-ends inside RemoveMinMC (dataset 1c)";
    header = [ "|N|"; "backend"; "ms"; "utility %" ];
    rows;
  }

let ablation_weight_scheme profile =
  let schemes =
    [
      ("reachability (paper-literal)", Cdw_core.Utility.Reachability_mass);
      ("path-count (exact marginal)", Cdw_core.Utility.Path_count_mass);
    ]
  in
  let configs =
    [ ("1a", Gen_params.dataset1a); ("1c", Gen_params.dataset1c) ]
  in
  let counts = [ 5; 10; 20 ] in
  let rows =
    List.concat_map
      (fun (ds, params_of) ->
        List.concat_map
          (fun n ->
            let instance =
              Generator.generate
                ~seed:(seed ~exp:9 ~point:n ~attempt:0)
                (params_of ~n_constraints:n)
            in
            List.map
              (fun (label, scheme) ->
                let solver ~deadline (i : Generator.t) =
                  Cdw_core.Algorithms.remove_min_mc ~scheme ~deadline
                    i.Generator.workflow i.Generator.constraints
                in
                match Runner.once_custom ~profile solver instance with
                | Some s ->
                    [
                      ds;
                      string_of_int n;
                      label;
                      Printf.sprintf "%.1f" s.Runner.time_ms;
                      Printf.sprintf "%.2f" s.Runner.utility_pct;
                    ]
                | None -> [ ds; string_of_int n; label; "timeout"; "-" ])
              schemes)
          counts)
      configs
  in
  {
    Table.title =
      "Ablation: cut-weight scheme in RemoveMinMC (see DESIGN.md §2.1a)";
    header = [ "dataset"; "|N|"; "scheme"; "ms"; "utility %" ];
    rows;
  }

(* ------------------------------------------------------------------ *)

let emit ~results_dir name table =
  Table.print table;
  let path = Table.write_csv ~dir:results_dir ~name table in
  Printf.printf "  [csv: %s]\n%!" path

(* One |N| sweep measures both figures of a dataset: fig5x and fig6x. *)
let fig5_6_run ds ~results_dir profile =
  let letter = String.sub (dataset1_label ds) 1 1 in
  let t5, t6 = fig5_6 ~charts_dir:results_dir profile ds in
  emit ~results_dir ("fig5" ^ letter) t5;
  emit ~results_dir ("fig6" ^ letter) t6

let one name f ~results_dir profile = emit ~results_dir name (f profile)

let registry =
  [
    ("fig5a", fig5_6_run D1a);
    ("fig5b", fig5_6_run D1b);
    ("fig5c", fig5_6_run D1c);
    ("table3", one "table3" table3);
    ("fig7", one "fig7" fig7);
    ( "fig8",
      fun ~results_dir profile ->
        emit ~results_dir "fig8" (fig8 ~charts_dir:results_dir profile) );
    ( "fig9",
      fun ~results_dir profile ->
        let t, u = fig9 ~charts_dir:results_dir profile in
        emit ~results_dir "fig9_time" t;
        emit ~results_dir "fig9_utility" u );
    ("ablation-bnb", one "ablation_bnb" ablation_bnb);
    ("ablation-minmc", one "ablation_minmc_backends" ablation_minmc_backends);
    ("ablation-weights", one "ablation_weight_scheme" ablation_weight_scheme);
  ]

let run_all ?(results_dir = "results") profile =
  Printf.printf "Experiment profile: %s\n%!" profile.Profile.label;
  List.iter (fun (_, run) -> run ~results_dir profile) registry
