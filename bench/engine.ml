(* Engine serving benchmark: batched shared-index serving vs naive
   per-request scratch solving on the same request script.

   Usage:
     dune exec bench/engine.exe                  # acceptance workload
                                                 # (100 vertices, 50 sessions)
     dune exec bench/engine.exe -- --quick       # CI smoke run
     dune exec bench/engine.exe -- --sessions 200 --shards
     dune exec bench/engine.exe -- --out results/engine.json

   Always writes the full result (config, timings, speedup, engine
   metrics) as JSON — BENCH_engine.json by default — so successive PRs
   accumulate a perf trajectory. *)

module Algorithms = Cdw_core.Algorithms
module Json = Cdw_util.Json
module Shard_bench = Cdw_shard.Shard_bench
module Trace = Cdw_obs.Trace
module Workbench = Cdw_engine.Workbench

let usage () =
  prerr_endline
    "usage: engine [--quick] [--vertices N] [--density D] [--stages N]\n\
    \              [--sessions N] [--batches N] [--pairs N]\n\
    \              [--no-withdrawals] [--seed N]\n\
    \              [--algorithm NAME] [--out FILE] [--trace-out FILE]\n\
    \              [--baseline FILE] [--shards] [--net] [--tiered] [--evolve]\n\
    \              [--oracle]";
  exit 2

(* The same workload served over a Unix-domain socket: server thread
   and client in this one process, so the row isolates what the wire
   adds — framing, CRC, codec, syscalls, one thread hop — with no
   actual network in the way. Fresh serving value and socket per
   trial; best-of like every other timing here. *)
let networked ?(trials = 3) ?shards config =
  let module Serving = Cdw_shard.Serving in
  let module Server = Cdw_net.Server in
  let module Client = Cdw_net.Client in
  let module Metrics = Cdw_engine.Metrics in
  let module Timing = Cdw_util.Timing in
  let wf, script = Workbench.workload config in
  let n_requests = List.length script in
  let path = Filename.temp_file "cdw_bench" ".sock" in
  let best = ref infinity in
  (* Request p999 and per-domain accounting of the best trial — the
     trial the rps reports. *)
  let best_obs = ref (0.0, []) in
  for _ = 1 to trials do
    if Sys.file_exists path then Sys.remove path;
    let serving =
      Serving.create ~algorithm:config.Workbench.algorithm
        ~seed:config.Workbench.seed ?shards wf
    in
    let server = Server.start serving (Unix.ADDR_UNIX path) in
    let client = Client.connect (Server.sockaddr server) in
    let replies, ms =
      Timing.time_f (fun () ->
          List.iter
            (fun (user, request) -> Client.submit client ~user request)
            script;
          Client.drain client)
    in
    List.iter
      (fun (r : Cdw_engine.Engine.reply) ->
        match r.Cdw_engine.Engine.result with
        | Ok () -> ()
        | Error msg -> failwith ("networked bench: request failed: " ^ msg))
      replies;
    let p999 =
      Option.value ~default:0.0
        (Metrics.percentile (Serving.metrics serving) "request" 0.999)
    in
    let dstats = Serving.domain_stats serving in
    Client.close client;
    Server.stop server;
    Serving.close serving;
    if ms < !best then begin
      best := ms;
      best_obs := (p999, dstats)
    end
  done;
  if Sys.file_exists path then Sys.remove path;
  let ms = !best in
  let rps =
    if ms > 0.0 then float_of_int n_requests /. (ms /. 1000.0) else infinity
  in
  let p999, dstats = !best_obs in
  (n_requests, ms, rps, p999, dstats)

(* Million-user tiered row: a Zipf-skewed open-loop stream over the
   config's base workflow, served under a memory cap that keeps at most
   [resident_cap] sessions live — at 1M stable users that forces the
   overwhelming majority cold, so the row measures sustained serving
   with eviction and on-demand rehydration on the hot path. *)
let tiered config =
  let module Serving = Cdw_shard.Serving in
  let module Tier = Cdw_engine.Tier in
  let module Traffic = Cdw_workload.Traffic in
  let wf, _ = Workbench.workload config in
  let pairs = Workbench.connected_pairs wf in
  let spec =
    {
      Traffic.default with
      Traffic.requests = 200_000;
      seed = config.Workbench.seed;
    }
  in
  let serving =
    Serving.create ~algorithm:config.Workbench.algorithm
      ~seed:config.Workbench.seed wf
  in
  (* Turn tiering on with a floor cap first to learn the measured
     per-session byte cost, then set the real cap in those units. *)
  Serving.set_mem_cap serving (Some 1);
  let session_bytes =
    match Serving.tier_stats serving with
    | Some st -> st.Tier.session_bytes
    | None -> 1024
  in
  let resident_cap = 4096 in
  let cap = resident_cap * session_bytes in
  Serving.set_mem_cap serving (Some cap);
  let run = Shard_bench.serve_traffic serving spec ~pairs in
  Serving.close serving;
  if run.Shard_bench.t_errors > 0 then
    failwith
      (Printf.sprintf "tiered bench: %d request(s) failed"
         run.Shard_bench.t_errors);
  let cold_fraction =
    match run.Shard_bench.t_tier with
    | Some st when st.Tier.resident + st.Tier.parked > 0 ->
        float_of_int st.Tier.parked
        /. float_of_int (st.Tier.resident + st.Tier.parked)
    | _ -> 0.0
  in
  Format.printf "%a@,  cold fraction %.3f (cap %d B = %d sessions)@."
    Shard_bench.pp_traffic run cold_fraction cap resident_cap;
  let extra =
    [
      ("traffic", Json.String (Traffic.spec_to_string spec));
      ("users", Json.Number (float_of_int spec.Traffic.users));
      ("zipf_s", Json.Number spec.Traffic.zipf_s);
      ("churn", Json.Number spec.Traffic.churn);
      ("cold_fraction", Json.Number cold_fraction);
    ]
  in
  match Shard_bench.traffic_run_json run with
  | Json.Object fields -> Json.Object (extra @ fields)
  | json -> json

(* Epoch-migration row: 100k warm sessions on the config's base, then
   one evolve step (drop/add/reprice) installed as the next epoch. Every
   session is re-solved on the new base; the epoch's solve memo answers
   repeated constraint lists from its table. *)
let evolve base_config =
  let module Serving = Cdw_shard.Serving in
  let module Engine = Cdw_engine.Engine in
  let module Evolve = Cdw_workload.Evolve in
  let module Timing = Cdw_util.Timing in
  let config =
    {
      base_config with
      Workbench.n_sessions = 100_000;
      batches_per_session = 1;
      pairs_per_batch = 2;
      withdrawals = false;
    }
  in
  let wf, script = Workbench.workload config in
  let serving =
    Serving.create ~algorithm:config.Workbench.algorithm
      ~seed:config.Workbench.seed wf
  in
  List.iter
    (fun (user, request) -> Serving.submit serving ~user request)
    script;
  List.iter
    (fun (r : Engine.reply) ->
      match r.Engine.result with
      | Ok () -> ()
      | Error msg -> failwith ("evolve bench: request failed: " ^ msg))
    (Serving.drain serving);
  let step =
    { Evolve.default_step with Evolve.seed = config.Workbench.seed }
  in
  let next = Evolve.mutate step wf in
  let m, migrate_ms = Timing.time_f (fun () -> Serving.migrate serving next) in
  Serving.close serving;
  Printf.printf "evolve (%d sessions): migrate %.1f ms (%d re-solved)\n"
    config.Workbench.n_sessions migrate_ms m.Engine.m_recomputed;
  Json.Object
    [
      ("sessions", Json.Number (float_of_int config.Workbench.n_sessions));
      ("step", Json.String (Evolve.spec_to_string [ step ]));
      ("migrate_ms", Json.Number migrate_ms);
      ("recomputed", Json.Number (float_of_int m.Engine.m_recomputed));
    ]

(* Oracle row: utility retained by the serving heuristic (RemoveMinMC)
   vs the exact ILP multicut, one instance per paper dataset. The
   interesting number is the gap the anytime refiner can reclaim —
   exact minus heuristic, as a fraction of the base utility. The exact
   side runs under a generous budget; if it still falls back, the row
   records the tier honestly instead of passing the heuristic's own
   answer off as an optimum. *)
let oracle base_config =
  let module Generator = Cdw_workload.Generator in
  let module Gen_params = Cdw_workload.Gen_params in
  let module Dataset2 = Cdw_workload.Dataset2 in
  let module Utility = Cdw_core.Utility in
  let module Workflow = Cdw_core.Workflow in
  let module Timing = Cdw_util.Timing in
  let seed = base_config.Workbench.seed in
  let datasets =
    [
      ("1a", Generator.generate ~seed (Gen_params.dataset1a ~n_constraints:6));
      ("1b", Generator.generate ~seed (Gen_params.dataset1b ~n_constraints:6));
      ("1c", Generator.generate ~seed (Gen_params.dataset1c ~n_constraints:6));
      ("2", Dataset2.base ~seed ());
      ("3", Generator.generate ~seed (Gen_params.dataset3 ~n_vertices:500));
    ]
  in
  let rows =
    List.map
      (fun (name, (instance : Cdw_workload.Generator.t)) ->
        let wf = instance.Cdw_workload.Generator.workflow in
        let cs = instance.Cdw_workload.Generator.constraints in
        let base_u = Utility.total wf in
        let solve algo budget =
          let options =
            {
              Algorithms.Options.default with
              Algorithms.Options.solver_budget_ms = budget;
            }
          in
          let o, ms =
            Timing.time_f (fun () -> Algorithms.solve ~options algo wf cs)
          in
          let retained =
            if base_u > 0.0 then o.Algorithms.utility_after /. base_u else 1.0
          in
          (retained, ms, o.Algorithms.tier)
        in
        let h_retained, h_ms, _ = solve Algorithms.Remove_min_mc None in
        let e_retained, e_ms, e_tier =
          solve Algorithms.Exact_ilp (Some 10_000.0)
        in
        let tier = Option.value ~default:"exact-ilp" e_tier in
        Printf.printf
          "oracle %-2s: base %10.0f  min-mc %6.2f%% (%7.1f ms)  %s %6.2f%% \
           (%7.1f ms)  reclaimable %5.2f%%\n"
          name base_u (100.0 *. h_retained) h_ms tier (100.0 *. e_retained)
          e_ms
          (100.0 *. (e_retained -. h_retained));
        Json.Object
          [
            ("dataset", Json.String name);
            ("base_utility", Json.Number base_u);
            ("min_mc_retained", Json.Number h_retained);
            ("min_mc_ms", Json.Number h_ms);
            ("exact_retained", Json.Number e_retained);
            ("exact_ms", Json.Number e_ms);
            ("exact_tier", Json.String tier);
            ("reclaimable", Json.Number (e_retained -. h_retained));
          ])
      datasets
  in
  Json.Array rows

(* Regression guard: compare this run's engine_rps against a previously
   committed result file. Only meaningful when the configs match — a
   --quick baseline says nothing about the acceptance workload — so a
   config mismatch skips the comparison with a note instead of lying. *)
let check_baseline file (result : Workbench.result) =
  let die fmt =
    Printf.ksprintf
      (fun s ->
        prerr_endline s;
        exit 1)
      fmt
  in
  let text =
    try In_channel.with_open_bin file In_channel.input_all
    with Sys_error e -> die "baseline: %s" e
  in
  match Json.parse text with
  | Error e -> die "baseline %s: unreadable JSON: %s" file e
  | Ok baseline -> (
      let current = Workbench.result_json result in
      match (Json.member "config" baseline, Json.member "config" current) with
      | Some bc, Some cc when bc <> cc ->
          Printf.printf
            "baseline %s: config differs from this run; skipping the rps guard\n"
            file
      | Some _, Some _ -> (
          match Json.member "engine_rps" baseline with
          | Some (Json.Number baseline_rps) when baseline_rps > 0.0 ->
              let ratio = result.Workbench.engine_rps /. baseline_rps in
              Printf.printf "baseline %s: engine_rps %.0f -> %.0f (%.2fx)\n"
                file baseline_rps result.Workbench.engine_rps ratio;
              if ratio < 0.9 then
                die
                  "bench guard: engine_rps regressed more than 10%% vs %s \
                   (%.0f -> %.0f)"
                  file baseline_rps result.Workbench.engine_rps
          | _ -> die "baseline %s: no engine_rps field" file)
      | _ -> die "baseline %s: no config object" file)

let () =
  let config = ref Workbench.default in
  let out = ref "BENCH_engine.json" in
  let baseline = ref None in
  let trace_out = ref None in
  let shards = ref false in
  let net = ref false in
  let tier = ref false in
  let evolve_row = ref false in
  let oracle_row = ref false in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
        config := Workbench.quick;
        parse rest
    | "--vertices" :: n :: rest ->
        config := { !config with Workbench.n_vertices = int_of_string n };
        parse rest
    | "--density" :: d :: rest ->
        config := { !config with Workbench.density = float_of_string d };
        parse rest
    | "--stages" :: n :: rest ->
        config := { !config with Workbench.stages = int_of_string n };
        parse rest
    | "--sessions" :: n :: rest ->
        config := { !config with Workbench.n_sessions = int_of_string n };
        parse rest
    | "--batches" :: n :: rest ->
        config :=
          { !config with Workbench.batches_per_session = int_of_string n };
        parse rest
    | "--pairs" :: n :: rest ->
        config := { !config with Workbench.pairs_per_batch = int_of_string n };
        parse rest
    | "--no-withdrawals" :: rest ->
        config := { !config with Workbench.withdrawals = false };
        parse rest
    | "--seed" :: n :: rest ->
        config := { !config with Workbench.seed = int_of_string n };
        parse rest
    | "--algorithm" :: name :: rest -> (
        match Algorithms.of_string name with
        | Some a ->
            config := { !config with Workbench.algorithm = a };
            parse rest
        | None ->
            Printf.eprintf "unknown algorithm %S\n" name;
            usage ())
    | "--out" :: file :: rest ->
        out := file;
        parse rest
    | "--baseline" :: file :: rest ->
        baseline := Some file;
        parse rest
    | "--trace-out" :: file :: rest ->
        trace_out := Some file;
        parse rest
    | "--shards" :: rest ->
        shards := true;
        parse rest
    | "--net" :: rest ->
        net := true;
        parse rest
    | "--tiered" :: rest ->
        tier := true;
        parse rest
    | "--evolve" :: rest ->
        evolve_row := true;
        parse rest
    | "--oracle" :: rest ->
        oracle_row := true;
        parse rest
    | arg :: _ ->
        Printf.eprintf "unknown argument %S\n" arg;
        usage ()
  in
  (match parse (List.tl (Array.to_list Sys.argv)) with
  | () -> ()
  | exception (Failure _) -> usage ());
  if !trace_out <> None then Trace.set_enabled true;
  (* Restart the trace as each engine trial starts, so the file holds
     exactly the last (best-timed candidate) trial, not the naive
     baseline or earlier trials. *)
  let attach _engine = if !trace_out <> None then Trace.reset () in
  let result = Workbench.run ~attach !config in
  (match !trace_out with
  | None -> ()
  | Some file ->
      Trace.set_enabled false;
      Trace.write file;
      Printf.printf "wrote %s\n" file);
  Format.printf "%a@." Workbench.pp result;
  (* Guard against the committed numbers before overwriting them. *)
  (match !baseline with
  | Some file when Sys.file_exists file -> check_baseline file result
  | Some file -> Printf.printf "baseline %s: missing, nothing to guard\n" file
  | None -> ());
  (* Shard-scaling rows: the same script at 200 sessions served through
     a shard group at 1/2/4 shards. Rides along as an extra result
     field; the main result (and the baseline guard's config) is
     untouched. Scaling is core-count bound — rows from a single-core
     host record ≈1x. *)
  let scaling =
    if not !shards then None
    else begin
      let rows =
        Shard_bench.scaling
          ~shard_counts:[ 1; 2; 4 ]
          { !config with Workbench.n_sessions = 200 }
      in
      Format.printf "%a@." Shard_bench.pp_scaling rows;
      Some (Shard_bench.scaling_json rows)
    end
  in
  (* Networked row: the identical workload through the wire protocol
     over a Unix socket, against the in-process engine_rps above. The
     gap is protocol + syscall overhead, honestly recorded. *)
  let networked_row =
    if not !net then None
    else begin
      let n_requests, ms, rps, p999, _ = networked !config in
      Printf.printf
        "networked (unix socket): %d requests, %.1f ms, %.0f req/s \
         (in-process %.0f req/s, %.2fx of it)\n"
        n_requests ms rps result.Workbench.engine_rps
        (if result.Workbench.engine_rps > 0.0 then
           rps /. result.Workbench.engine_rps
         else infinity);
      Some
        (Json.Object
           [
             ("transport", Json.String "unix-socket");
             ("n_requests", Json.Number (float_of_int n_requests));
             ("engine_ms", Json.Number ms);
             ("engine_rps", Json.Number rps);
             ("p999_ms", Json.Number p999);
             ("inprocess_rps", Json.Number result.Workbench.engine_rps);
             ( "rps_vs_inprocess",
               Json.Number
                 (if result.Workbench.engine_rps > 0.0 then
                    rps /. result.Workbench.engine_rps
                  else infinity) );
           ])
    end
  in
  (* The same wire workload through a 2-shard group, with the drain
     domains' own accounting alongside the timings: barrier-wait
     fraction and inbox-depth peaks say where the wall time went, which
     raw rps cannot. On a 1-core host the two pinned domains timeshare
     one core, so the row records coordination cost, not speedup — the
     note field says so. *)
  let networked_sharded_row =
    if not !net then None
    else begin
      let module Domain_acct = Cdw_engine.Domain_acct in
      let n_requests, ms, rps, p999, dstats = networked ~shards:2 !config in
      let barrier = Domain_acct.barrier_fraction dstats in
      let inbox_peak =
        List.fold_left
          (fun acc s -> max acc s.Domain_acct.s_inbox_depth_peak)
          0 dstats
      in
      Printf.printf
        "networked 2-shard: %d requests, %.1f ms, %.0f req/s, p999 %.3f ms, \
         barrier wait %.1f%%, inbox peak %d\n"
        n_requests ms rps p999 (100.0 *. barrier) inbox_peak;
      Some
        (Json.Object
           [
             ("transport", Json.String "unix-socket");
             ("shards", Json.Number 2.0);
             ("n_requests", Json.Number (float_of_int n_requests));
             ("engine_ms", Json.Number ms);
             ("engine_rps", Json.Number rps);
             ("p999_ms", Json.Number p999);
             ("barrier_wait_fraction", Json.Number barrier);
             ("inbox_depth_peak", Json.Number (float_of_int inbox_peak));
             ("domains", Json.Array (List.map Domain_acct.stats_json dstats));
             ( "note",
               Json.String
                 "shard parallelism is core-count bound: on a 1-core host \
                  the two pinned drain domains timeshare one core, so this \
                  row measures wire + coordination overhead (see \
                  barrier_wait_fraction), not scaling" );
           ])
    end
  in
  (* Tiered row: a 1M-user Zipf stream under a memory cap forcing >90%
     of sessions cold (see [tiered]) — sustained rps and p999 with
     eviction/rehydration live on the serving path. *)
  let tiered_row = if !tier then Some (tiered !config) else None in
  (* Evolve row: one mid-life epoch install at 100k sessions — the
     migration's wall time and re-solve count. Extra field only; the
     baseline guard's config is untouched. *)
  let evolve_json = if !evolve_row then Some (evolve !config) else None in
  (* Oracle row: utility retained, heuristic vs exact ILP, per paper
     dataset — the refiner's reclaimable headroom (see [oracle]). *)
  let oracle_json = if !oracle_row then Some (oracle !config) else None in
  let result_json =
    match Workbench.result_json result with
    | Json.Object fields ->
        (* The host's core count contextualises every parallel number
           in the file — a one-core host honestly records ≈1x shard
           scaling, and this says why. *)
        let fields =
          fields
          @ [
              ( "host_cores",
                Json.Number (float_of_int (Domain.recommended_domain_count ()))
              );
            ]
        in
        let fields =
          match scaling with
          | Some rows -> fields @ [ ("shard_scaling", rows) ]
          | None -> fields
        in
        let fields =
          match networked_row with
          | Some row -> fields @ [ ("networked", row) ]
          | None -> fields
        in
        let fields =
          match networked_sharded_row with
          | Some row -> fields @ [ ("networked_sharded", row) ]
          | None -> fields
        in
        let fields =
          match tiered_row with
          | Some row -> fields @ [ ("tiered", row) ]
          | None -> fields
        in
        let fields =
          match evolve_json with
          | Some row -> fields @ [ ("evolve", row) ]
          | None -> fields
        in
        let fields =
          match oracle_json with
          | Some row -> fields @ [ ("utility_retained", row) ]
          | None -> fields
        in
        Json.Object fields
    | json -> json
  in
  let oc = open_out !out in
  output_string oc (Json.to_string result_json);
  output_string oc "\n";
  close_out oc;
  Printf.printf "wrote %s\n" !out
