(* Shared helpers for the test suite: deterministic random structures
   built from an integer seed, so QCheck shrinks over seeds. *)

module Digraph = Cdw_graph.Digraph
module Splitmix = Cdw_util.Splitmix

let qcheck ?(count = 100) name arb prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name arb prop)

(* A random DAG: vertices 0..n-1, edges only from lower to higher ids.
   [density] is the probability of each candidate edge. *)
let random_dag ~seed ~n ~density =
  let rng = Splitmix.create seed in
  let g = Digraph.create () in
  ignore (Digraph.add_vertices g n);
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Splitmix.float rng 1.0 < density then ignore (Digraph.add_edge g i j)
    done
  done;
  g

(* A random layered workflow instance via the production generator. *)
let random_instance ~seed =
  let rng = Splitmix.create seed in
  let params =
    {
      Cdw_workload.Gen_params.default with
      Cdw_workload.Gen_params.n_vertices = 20 + Splitmix.int rng 40;
      n_constraints = 1 + Splitmix.int rng 5;
      stages = 3 + Splitmix.int rng 3;
      density = (if Splitmix.bool rng then 0.0 else Splitmix.float rng 0.25);
      distribution =
        (if Splitmix.bool rng then Cdw_workload.Gen_params.Uniform
         else Cdw_workload.Gen_params.Non_uniform);
    }
  in
  Cdw_workload.Generator.generate ~seed params

(* ---------------------------------------------------------------- *)
(* Seed-reporting shrink harness for randomized differential suites.

   QCheck shrinks over its own generated values; the sharded
   differential and crash-recovery sweeps instead run a fixed property
   over an explicit seed list and a Gen_params instance shape. When a
   (seed, params) case fails, this harness greedily shrinks the params
   — halve the vertices, drop constraints and stages, zero the density
   — while the property still fails under the *same* seed, then fails
   the test with a message carrying the seed and the minimized
   parameters: the CI log alone is enough to reproduce. *)

module Gen_params = Cdw_workload.Gen_params

(* An exception out of the property counts as a failure (that is
   exactly the crash the harness must pin down), with its message kept
   for the report. *)
let run_case prop ~seed params =
  match prop ~seed params with
  | true -> None
  | false -> Some "property returned false"
  | exception exn -> Some (Printexc.to_string exn)

let pp_params (p : Gen_params.t) =
  Printf.sprintf "vertices=%d constraints=%d stages=%d density=%.3f %s"
    p.Gen_params.n_vertices p.Gen_params.n_constraints p.Gen_params.stages
    p.Gen_params.density
    (match p.Gen_params.distribution with
    | Gen_params.Uniform -> "uniform"
    | Gen_params.Non_uniform -> "non-uniform")

(* Candidate one-step shrinks, biggest reduction first. Floors keep the
   instance generable: at least one vertex per stage, k >= 2, one
   constraint (zero would trivially pass most properties). *)
let shrink_moves (p : Gen_params.t) =
  let open Gen_params in
  List.filter
    (fun q -> q <> p && Result.is_ok (validate q))
    [
      { p with n_vertices = max (2 * p.stages) (p.n_vertices / 2) };
      { p with n_vertices = max (2 * p.stages) (p.n_vertices - 1) };
      { p with n_constraints = max 1 (p.n_constraints - 1) };
      { p with stages = max 2 (p.stages - 1) };
      { p with density = 0.0 };
      { p with distribution = Uniform };
    ]

let check_seeded ?(max_shrink_evals = 200) ~params ~seeds name prop =
  List.iter
    (fun seed ->
      match run_case prop ~seed params with
      | None -> ()
      | Some first_reason ->
          let budget = ref max_shrink_evals in
          let still_fails q =
            !budget > 0
            &&
            (decr budget;
             Option.is_some (run_case prop ~seed q))
          in
          let rec shrink p =
            match List.find_opt still_fails (shrink_moves p) with
            | Some q -> shrink q
            | None -> p
          in
          let minimized = shrink params in
          Alcotest.failf
            "%s: seed %d failed (%s)@.  started from: %s@.  minimized to: \
             %s@.  reproduce: re-run the property with this seed and the \
             minimized parameters"
            name seed first_reason (pp_params params) (pp_params minimized))
    seeds

let edge_ids edges = List.sort compare (List.map Digraph.edge_id edges)

let live_edge_ids g =
  List.sort compare (Digraph.fold_edges (fun acc e -> Digraph.edge_id e :: acc) [] g)
