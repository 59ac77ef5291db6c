(* cdw — consent management in data workflows, command-line interface.

   Subcommands: generate synthetic workflows, inspect/audit workflow
   files, solve them under privacy constraints with any of the paper's
   algorithms, serve consent over a socket, and reproduce the paper's
   experiments. Lives in a library so the test suite can drive it via
   [eval ~argv]. *)

open Cmdliner
module Algorithms = Cdw_core.Algorithms
module Audit = Cdw_core.Audit
module Constraint_set = Cdw_core.Constraint_set
module Json = Cdw_util.Json
module Serialize = Cdw_core.Serialize
module Serving = Cdw_shard.Serving
module Workflow = Cdw_core.Workflow
module Generator = Cdw_workload.Generator
module Gen_params = Cdw_workload.Gen_params

let load_file path =
  match Serialize.load path with
  | Ok (wf, cs) -> `Ok (wf, cs)
  | Error msg -> `Error (false, Printf.sprintf "%s: %s" path msg)
  | exception Sys_error msg -> `Error (false, msg)

let write_json file json =
  let oc = open_out file in
  output_string oc (Json.to_string json);
  output_string oc "\n";
  close_out oc;
  Printf.printf "wrote %s\n" file

(* ---------------------------------------------------------------- *)
(* generate                                                           *)

let generate_cmd =
  let vertices =
    Arg.(value & opt int 100 & info [ "vertices"; "v" ] ~doc:"Number of vertices.")
  in
  let constraints =
    Arg.(value & opt int 10 & info [ "constraints"; "n" ] ~doc:"Number of privacy constraints.")
  in
  let stages =
    Arg.(value & opt int 5 & info [ "stages"; "k" ] ~doc:"Workflow stages (path length).")
  in
  let density =
    Arg.(value & opt float 0.0 & info [ "density"; "d" ] ~doc:"Minimum inter-stage edge density in [0,1].")
  in
  let uniform =
    Arg.(value & flag & info [ "uniform" ] ~doc:"Uniform stage widths (default: the paper's non-uniform vector).")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.") in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file (default: stdout).")
  in
  let run vertices constraints stages density uniform seed output =
    let params =
      {
        Gen_params.default with
        Gen_params.n_vertices = vertices;
        n_constraints = constraints;
        stages;
        density;
        distribution =
          (if uniform then Gen_params.Uniform else Gen_params.Non_uniform);
      }
    in
    match Generator.generate ~seed params with
    | instance ->
        (match output with
        | None ->
            print_string
              (Serialize.to_string ~constraints:instance.Generator.constraints
                 instance.Generator.workflow)
        | Some path ->
            (* A .json extension selects the JSON interchange format. *)
            Serialize.save ~constraints:instance.Generator.constraints path
              instance.Generator.workflow;
            Printf.printf "wrote %s\n" path);
        `Ok ()
    | exception Invalid_argument msg -> `Error (false, msg)
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a synthetic workflow (§7.1 of the paper).")
    Term.(
      ret
        (const run $ vertices $ constraints $ stages $ density $ uniform $ seed
       $ output))

(* ---------------------------------------------------------------- *)
(* show                                                               *)

let file_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Workflow file.")

let show_cmd =
  let dot =
    Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz DOT instead of a report.")
  in
  let run path dot =
    match load_file path with
    | `Error _ as e -> e
    | `Ok (wf, cs) ->
        if dot then print_string (Serialize.to_dot ~constraints:cs wf)
        else begin
          Format.printf "@[<v>%a@," Workflow.pp wf;
          (match Workflow.validate wf with
          | Ok () -> Format.printf "model invariants: ok@,"
          | Error errs ->
              List.iter (fun e -> Format.printf "invariant violation: %s@," e) errs);
          let report = Audit.report wf cs in
          Audit.pp wf Format.std_formatter report;
          Format.printf "@]@."
        end;
        `Ok ()
  in
  Cmd.v
    (Cmd.info "show" ~doc:"Summarise and audit a workflow file.")
    Term.(ret (const run $ file_arg $ dot))

(* ---------------------------------------------------------------- *)
(* solve                                                              *)

let algo_conv =
  let parse s =
    match Algorithms.of_string s with
    | Some a -> Ok a
    | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown algorithm %S (try: %s)" s
                (String.concat ", " (List.map Algorithms.to_string Algorithms.all_names))))
  in
  Arg.conv (parse, fun ppf a -> Format.pp_print_string ppf (Algorithms.to_string a))

let solve_cmd =
  let algo =
    Arg.(
      value
      & opt algo_conv Algorithms.Remove_min_mc
      & info [ "algorithm"; "a" ] ~doc:"Solving algorithm.")
  in
  let timeout =
    Arg.(value & opt float 60_000.0 & info [ "timeout" ] ~doc:"Timeout in milliseconds.")
  in
  let max_paths =
    Arg.(value & opt (some int) None & info [ "max-paths" ] ~doc:"Path-enumeration cap for the exhaustive searches.")
  in
  let seed =
    Arg.(value & opt (some int) None & info [ "seed" ] ~doc:"PRNG seed for remove-random-edge.")
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the consented workflow here.")
  in
  let run path algo timeout max_paths seed output =
    match load_file path with
    | `Error _ as e -> e
    | `Ok (wf, cs) when cs = [] ->
        ignore wf;
        `Error (false, "the file declares no constraints; nothing to solve")
    | `Ok (wf, cs) -> (
        let options =
          {
            Algorithms.Options.default with
            Algorithms.Options.deadline =
              Cdw_util.Timing.deadline_after_ms timeout;
            max_paths;
            rng = Option.map Cdw_util.Splitmix.create seed;
          }
        in
        match Algorithms.solve ~options algo wf cs with
        | outcome ->
            Format.printf "@[<v>algorithm: %s@,"
              (Algorithms.to_string algo);
            (* How the answer was found: the oracle tier that answered
               and its lower bound on the cut weight, and whether a
               solver budget ran out so the greedy multicut answered. *)
            Option.iter (Format.printf "tier: %s@,") outcome.Algorithms.tier;
            Option.iter (Format.printf "bound: %.2f@,") outcome.Algorithms.bound;
            Format.printf "budget_fallback: %b@," outcome.Algorithms.budget_fallback;
            Audit.pp_solution_diff wf Format.std_formatter outcome;
            Format.printf "@]@.";
            (match output with
            | None -> ()
            | Some out ->
                Serialize.save ~constraints:cs out outcome.Algorithms.workflow;
                Printf.printf "wrote %s\n" out);
            `Ok ()
        | exception Cdw_util.Timing.Timeout ->
            `Error (false, "timed out; raise --timeout or pick a heuristic"))
  in
  Cmd.v
    (Cmd.info "solve" ~doc:"Compute a consented workflow maximising utility.")
    Term.(ret (const run $ file_arg $ algo $ timeout $ max_paths $ seed $ output))

(* ---------------------------------------------------------------- *)
(* socket addresses and fsync policies (serve, serve-bench)           *)

let string_of_sockaddr = function
  | Unix.ADDR_UNIX path -> path
  | Unix.ADDR_INET (a, p) ->
      Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p

(* HOST:PORT (numeric address or resolvable name) is TCP; anything
   else — in particular anything with a slash — is a Unix-domain
   socket path. *)
let parse_sockaddr s =
  match String.rindex_opt s ':' with
  | Some i when not (String.contains s '/') -> (
      let host = String.sub s 0 i in
      let host = if host = "" then "127.0.0.1" else host in
      match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
      | None -> Error (Printf.sprintf "%S: the port is not a number" s)
      | Some port -> (
          match Unix.inet_addr_of_string host with
          | addr -> Ok (Unix.ADDR_INET (addr, port))
          | exception Failure _ -> (
              match Unix.gethostbyname host with
              | h when Array.length h.Unix.h_addr_list > 0 ->
                  Ok (Unix.ADDR_INET (h.Unix.h_addr_list.(0), port))
              | _ -> Error (Printf.sprintf "cannot resolve host %S" host)
              | exception Not_found ->
                  Error (Printf.sprintf "cannot resolve host %S" host))))
  | _ -> Ok (Unix.ADDR_UNIX s)

let sockaddr_conv =
  Arg.conv
    ( (fun s ->
        match parse_sockaddr s with Ok a -> Ok a | Error m -> Error (`Msg m)),
      fun ppf a -> Format.pp_print_string ppf (string_of_sockaddr a) )

let fsync_conv =
  let parse s =
    match Cdw_store.Wal.fsync_policy_of_string s with
    | Ok p -> Ok p
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv
    ( parse,
      fun ppf p ->
        Format.pp_print_string ppf (Cdw_store.Wal.fsync_policy_to_string p) )

(* ---------------------------------------------------------------- *)
(* serve-bench                                                        *)

(* The server's serving and net registries, as its Metrics op returns
   them. *)
let write_server_metrics client file =
  match Json.parse (Cdw_net.Client.metrics client) with
  | Ok json -> write_json file json
  | Error msg -> failwith ("server metrics: " ^ msg)

let serve_bench_cmd =
  let module Workbench = Cdw_engine.Workbench in
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"CI smoke configuration (60 vertices, 12 sessions).")
  in
  let vertices =
    Arg.(value & opt (some int) None & info [ "vertices"; "v" ] ~doc:"Workflow vertices.")
  in
  let stages =
    Arg.(value & opt (some int) None & info [ "stages"; "k" ] ~doc:"Workflow stages (path length).")
  in
  let density =
    Arg.(value & opt (some float) None & info [ "density"; "d" ] ~doc:"Minimum inter-stage edge density in [0,1].")
  in
  let sessions =
    Arg.(value & opt (some int) None & info [ "sessions" ] ~doc:"Concurrent user sessions.")
  in
  let batches =
    Arg.(value & opt (some int) None & info [ "batches" ] ~doc:"Constraint batches per session.")
  in
  let pairs =
    Arg.(value & opt (some int) None & info [ "pairs" ] ~doc:"Constraint pairs per batch.")
  in
  let no_withdrawals =
    Arg.(value & flag & info [ "no-withdrawals" ] ~doc:"Skip the per-session withdrawal round.")
  in
  let seed = Arg.(value & opt (some int) None & info [ "seed" ] ~doc:"PRNG seed.") in
  let shards =
    Arg.(value & opt (some int) None & info [ "shards" ] ~docv:"N" ~doc:"Serve through a group of $(docv) shard engines over one shared base (default 1; replies are identical at every shard count). With --journal, each shard gets its own ledger in DIR/shard-<i>, next to a group.json.")
  in
  let algo =
    Arg.(value & opt (some algo_conv) None & info [ "algorithm"; "a" ] ~doc:"Solving algorithm.")
  in
  let trials =
    Arg.(value & opt int 3 & info [ "trials" ] ~doc:"Timing trials per server (best-of).")
  in
  let connect =
    Arg.(value & opt (some sockaddr_conv) None & info [ "connect" ] ~docv:"ADDR" ~doc:"Drive a remote `cdw serve' at $(docv) (Unix socket path or HOST:PORT) over the wire protocol instead of serving in-process. The script is built against the server's own base workflow (fetched via Hello). --journal, --mem-cap-bytes, --shards, --vertices, --stages, --density, --prom-out and --stats-out are in-process only and rejected here: set the ledger, the cap, the shard count and the workflow's shape on `cdw serve', and fetch its metrics with --metrics-out.")
  in
  let user_prefix =
    Arg.(value & opt string "user" & info [ "user-prefix" ] ~docv:"NAME" ~doc:"Session-name prefix for --connect clients. Concurrent clients with distinct prefixes share one server without touching each other's sessions.")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Write the full result (config, timings, engine metrics) as JSON.")
  in
  let metrics_out =
    Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc:"Write just the engine's metrics registry (counters and latency summaries) as JSON. With --connect, the server's serving and net registries, fetched over the wire after the run.")
  in
  let journal =
    Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"DIR" ~doc:"Journal the serving run into a durable consent ledger at $(docv), measuring the durability overhead. Use --trials 1: each trial re-creates the ledger.")
  in
  let fsync =
    Arg.(value & opt (some fsync_conv) None & info [ "fsync" ] ~docv:"POLICY" ~doc:"The ledger's fsync policy: always, never or every:N (default every:32). Requires --journal.")
  in
  let trace_out =
    Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc:"Record a Chrome trace of the last serving trial and write it to $(docv) (open in Perfetto, or feed to `cdw trace summarize'). With --connect, the server's own trace (if it runs with --trace) is fetched over the wire and merged into one timeline — client submit to server ingest to shard drain, stitched by the wire-carried span ids.")
  in
  let prom_out =
    Arg.(value & opt (some string) None & info [ "prom-out" ] ~docv:"FILE" ~doc:"Rewrite $(docv) with the serving metrics in Prometheus text exposition format every --stats-interval while the benchmark runs, and once at the end.")
  in
  let stats_out =
    Arg.(value & opt (some string) None & info [ "stats-out" ] ~docv:"FILE" ~doc:"Append one JSON line of serving metrics to $(docv) every --stats-interval: a live time series of the run.")
  in
  let stats_interval =
    Arg.(value & opt float 1.0 & info [ "stats-interval" ] ~docv:"SECS" ~doc:"Telemetry emit interval in seconds (min 0.05).")
  in
  let traffic =
    Arg.(value & opt (some string) None & info [ "traffic" ] ~docv:"SPEC" ~doc:"Serve an open-loop production-shaped stream instead of the fixed session script: comma-separated key:value settings over the default — zipf:S, users:M, churn:C, requests:N, mix:I/W/Q, rps:R, burst:RPS/ON_MS/OFF_MS, seed:N. E.g. --traffic zipf:1.1,users:1000000,churn:0.05. The stream runs once (--trials does not apply); works both in-process and with --connect.")
  in
  let mem_cap =
    Arg.(value & opt (some int) None & info [ "mem-cap-bytes" ] ~docv:"BYTES" ~doc:"Bound resident-session memory: beyond the cap the coldest idle sessions are evicted to a compact parked record at drain boundaries and rehydrated on demand (tier.evictions / tier.hydrations counters). In-process only; with --connect set the cap server-side on `cdw serve'.")
  in
  let evolve =
    Arg.(value & opt (some string) None & info [ "evolve" ] ~docv:"SPEC" ~doc:"Mutate the base workflow mid-run (live epoch installs, DESIGN.md \\$(b,16)): a semicolon-separated schedule of steps, each comma-separated key:value items — at:MS (synthetic-stream milliseconds, non-decreasing), add:N/drop:N (structural edge churn), reprice:N (user-edge revaluations), purposes:N (new purpose vertices), seed:N. E.g. --evolve 'at:200,drop:2,seed:7;at:600,add:3,purposes:1,seed:8'. Steps fire at drain boundaries of the synthetic clock; each mutates the base the previous step installed. Requires --traffic; with --connect the mutants ship over the wire as epoch installs.")
  in
  let run quick vertices stages density sessions batches pairs no_withdrawals
      seed shards algo trials connect user_prefix out metrics_out
      journal fsync trace_out prom_out stats_out stats_interval traffic mem_cap
      evolve =
    let module Shard_bench = Cdw_shard.Shard_bench in
    let module Client = Cdw_net.Client in
    let module Trace = Cdw_obs.Trace in
    let module Telemetry = Cdw_obs.Telemetry in
    let base = if quick then Workbench.quick else Workbench.default in
    let pick field = function Some v -> v | None -> field base in
    let config =
      {
        Workbench.n_vertices = pick (fun c -> c.Workbench.n_vertices) vertices;
        stages = pick (fun c -> c.Workbench.stages) stages;
        density = pick (fun c -> c.Workbench.density) density;
        n_sessions = pick (fun c -> c.Workbench.n_sessions) sessions;
        batches_per_session =
          pick (fun c -> c.Workbench.batches_per_session) batches;
        pairs_per_batch = pick (fun c -> c.Workbench.pairs_per_batch) pairs;
        withdrawals = base.Workbench.withdrawals && not no_withdrawals;
        seed = pick (fun c -> c.Workbench.seed) seed;
        algorithm = pick (fun c -> c.Workbench.algorithm) algo;
      }
    in
    let traffic_spec =
      match traffic with
      | None -> Ok None
      | Some s ->
          Result.map Option.some (Cdw_workload.Traffic.spec_of_string s)
    in
    let evolve_steps =
      match evolve with
      | None -> Ok []
      | Some s -> Cdw_workload.Evolve.spec_of_string s
    in
    (* One driver per workload, whatever the transport: the printed
       summary and the result's JSON fields. *)
    let bench traffic_spec evolve_steps target =
      let fields = function Json.Object f -> f | _ -> [] in
      match traffic_spec with
      | Some spec ->
          let r =
            Shard_bench.serve_traffic ~evolve:evolve_steps target spec
          in
          ( Format.asprintf "%a" Shard_bench.pp_traffic r,
            ( "traffic",
              Json.String (Cdw_workload.Traffic.spec_to_string spec) )
            :: fields (Shard_bench.traffic_run_json r) )
      | None ->
          let r = Shard_bench.serve ~trials target config in
          let line label ms p999 =
            Printf.sprintf
              "serve-bench: %d shard(s), %d requests, %s: %.1f ms, %.0f \
               req/s, p999 %.3f ms"
              r.Shard_bench.shards r.Shard_bench.n_requests label ms
              (float_of_int r.Shard_bench.n_requests /. (ms /. 1000.0))
              p999
          in
          let best = Printf.sprintf "best of %d" trials in
          (* Over the wire a reset forgets the users but not the
             server's solve memo, so only the first trial is cold. *)
          ( (if Option.is_some (target.Shard_bench.serving ()) then
               line best r.Shard_bench.ms r.Shard_bench.p999_ms
             else
               line "trial 1 (cold memo)" r.Shard_bench.first_ms
                 r.Shard_bench.first_p999_ms
               ^ "\n"
               ^ line (best ^ " (warm memo)") r.Shard_bench.ms
                   r.Shard_bench.p999_ms),
            fields (Shard_bench.run_json r) )
    in
    (* Restart the trace after each trial's set-up, so it holds the
       timed part of the last trial. *)
    let traced (target : Shard_bench.target) =
      if trace_out = None then target
      else
        {
          target with
          reset =
            (fun users ->
              target.reset users;
              Trace.reset ());
        }
    in
    match (traffic_spec, evolve_steps) with
    | Error msg, _ -> `Error (false, "--traffic: " ^ msg)
    | _, Error msg -> `Error (false, "--evolve: " ^ msg)
    | Ok None, Ok (_ :: _) ->
        `Error (false, "--evolve requires --traffic (the schedule runs on the stream's synthetic clock)")
    | _ when fsync <> None && journal = None ->
        `Error (false, "--fsync requires --journal (without a ledger there is nothing to fsync)")
    | _ when connect <> None && (journal <> None || mem_cap <> None) ->
        `Error (false, "--journal and --mem-cap-bytes are in-process only; with --connect, set them on `cdw serve'")
    | _ when connect <> None && (prom_out <> None || stats_out <> None) ->
        `Error (false, "--prom-out and --stats-out are in-process only; with --connect, use --metrics-out")
    | _ when connect <> None && shards <> None ->
        `Error (false, "--shards is in-process only; with --connect, set it on `cdw serve'")
    | _ when connect <> None && (vertices <> None || stages <> None || density <> None) ->
        `Error (false, "--vertices, --stages and --density are in-process only; with --connect, the script runs on the server's base (shape it on `cdw serve')")
    | Ok traffic_spec, Ok evolve_steps -> (
    let bench = bench traffic_spec evolve_steps in
    match connect with
    | Some addr -> (
        match Client.connect addr with
        | exception Unix.Unix_error (e, _, _) ->
            `Error
              ( false,
                Printf.sprintf "connect %s: %s" (string_of_sockaddr addr)
                  (Unix.error_message e) )
        | client -> (
            match
              Fun.protect
                ~finally:(fun () -> Client.close client)
                (fun () ->
                  if trace_out <> None then begin
                    Trace.set_process_label "serve-bench";
                    Trace.set_enabled true
                  end;
                  let result =
                    bench
                      (traced
                         (Client.bench_target ~prefix:user_prefix client))
                  in
                  (* One timeline across both processes: the
                     server's own export (its spans parent under our
                     wire-carried span ids) merged into ours,
                     timestamps aligned via the exports' epochs.
                     Empty when the server runs without --trace —
                     then the local half still stands alone. *)
                  Option.iter
                    (fun file ->
                      let theirs = Client.server_trace client in
                      Trace.set_enabled false;
                      let ours = Trace.export () in
                      write_json file
                        (match Json.parse theirs with
                        | Ok tj when theirs <> "" ->
                            Trace.merge_exports ours tj
                        | _ -> ours))
                    trace_out;
                  Option.iter (write_server_metrics client) metrics_out;
                  result)
            with
            | summary, fields ->
                Printf.printf "networked serve-bench: %s\n%s\n"
                  (string_of_sockaddr addr) summary;
                Option.iter
                  (fun file ->
                    write_json file
                      (Json.Object
                         (("transport", Json.String "socket")
                         :: ("addr", Json.String (string_of_sockaddr addr))
                         :: fields)))
                  out;
                `Ok ()
            | exception (Failure msg | Invalid_argument msg) ->
                `Error (false, msg)
            | exception Unix.Unix_error (e, fn, _) ->
                `Error
                  (false, Printf.sprintf "%s: %s" fn (Unix.error_message e))
            ))
    | None -> (
        (* Telemetry thunks of whatever serving value is live in the
           trial currently running: (prometheus exposition, metrics
           JSON). The SIGINT flush reads the same pair. *)
        let live = ref None in
        (* The live trial's serving value, for the SIGINT close (which
           flushes its ledger) and the final report. Earlier trials'
           values are closed as the next trial starts. *)
        let latest = ref None in
        let wf, _ = Workbench.workload config in
        let make () =
          let serving =
            Serving.create ~algorithm:config.Workbench.algorithm
              ~seed:config.Workbench.seed ?shards wf
          in
          latest := Some serving;
          live :=
            Some
              ( (fun () -> Serving.prometheus serving),
                fun () -> Serving.metrics_json serving );
          Option.iter (fun dir -> Serving.journal ?fsync ~dir serving) journal;
          (* Tiering goes on before any submit, so the whole run —
             journal replay included — respects the cap. *)
          Option.iter
            (fun cap -> Serving.set_mem_cap serving (Some cap))
            mem_cap;
          serving
        in
        let emit_telemetry () =
          match !live with
          | None -> ()
          | Some (prom, stats) ->
              Option.iter
                (fun file ->
                  let oc = open_out file in
                  output_string oc (prom ());
                  close_out oc)
                prom_out;
              Option.iter
                (fun file ->
                  let oc =
                    open_out_gen [ Open_append; Open_creat ] 0o644 file
                  in
                  (* JSON-lines: one compact object per interval. *)
                  output_string oc
                    (Json.to_string ~pretty:false
                       (Json.Object
                          [
                            ("t", Json.Number (Unix.gettimeofday ()));
                            ("metrics", stats ());
                          ]));
                  output_string oc "\n";
                  close_out oc)
                stats_out
        in
        let write_trace () =
          Option.iter (fun file -> Trace.write file) trace_out
        in
        if trace_out <> None then begin
          Trace.reset ();
          Trace.set_enabled true
        end;
        let telemetry =
          if prom_out <> None || stats_out <> None then
            Some (Telemetry.start ~interval_s:stats_interval emit_telemetry)
          else None
        in
        let finish () =
          Option.iter Telemetry.stop telemetry;
          (* One guaranteed final time-series line: short runs would
             otherwise beat the first interval tick and leave an empty
             --stats-out. *)
          emit_telemetry ();
          if trace_out <> None then Trace.set_enabled false
        in
        (* Ctrl-C: flush everything observable before dying, so an
           aborted soak run still leaves its trace, exposition and time
           series on disk; closing the live serving value flushes its
           ledger. The handler runs on the main thread at a safe point;
           the emitter domain is left to die with the process. *)
        let previous_sigint =
          Sys.signal Sys.sigint
            (Sys.Signal_handle
               (fun _ ->
                 prerr_endline "interrupted: flushing telemetry";
                 emit_telemetry ();
                 write_trace ();
                 (match (metrics_out, !live) with
                 | Some file, Some (_, stats) -> write_json file (stats ())
                 | _ -> ());
                 Option.iter Serving.close !latest;
                 exit 130))
        in
        let restore_sigint () = Sys.set_signal Sys.sigint previous_sigint in
        match bench (traced (Shard_bench.in_process make)) with
        | summary, fields ->
            restore_sigint ();
            finish ();
            write_trace ();
            print_endline summary;
            let serving = Option.get !latest in
            let metrics_json = Serving.metrics_json serving in
            print_endline (Json.to_string metrics_json);
            Option.iter
              (fun dir ->
                Printf.printf "journaled to %s (fsync %s)\n" dir
                  (Cdw_store.Wal.fsync_policy_to_string
                     (Option.value ~default:(Cdw_store.Wal.Every 32) fsync)))
              journal;
            Option.iter (fun file -> Printf.printf "wrote %s\n" file) trace_out;
            Option.iter
              (fun file ->
                write_json file
                  (Json.Object (fields @ [ ("metrics", metrics_json) ])))
              out;
            Option.iter (fun file -> write_json file metrics_json) metrics_out;
            Serving.close serving;
            `Ok ()
        | exception Invalid_argument msg ->
            restore_sigint ();
            finish ();
            `Error (false, msg)))
  in
  Cmd.v
    (Cmd.info "serve-bench"
       ~doc:
         "Benchmark the consent-serving engine — in-process (single or \
          sharded, one code path over the Serving API) or against a remote \
          `cdw serve' with --connect; prints the serving metrics as JSON. \
          The naive per-request baseline comparison lives in \
          bench/engine.exe.")
    Term.(
      ret
        (const run $ quick $ vertices $ stages $ density $ sessions $ batches
       $ pairs $ no_withdrawals $ seed $ shards $ algo $ trials
       $ connect $ user_prefix $ out $ metrics_out $ journal $ fsync
       $ trace_out $ prom_out $ stats_out $ stats_interval $ traffic
       $ mem_cap $ evolve))

(* ---------------------------------------------------------------- *)
(* serve                                                              *)

let serve_cmd =
  let module Server = Cdw_net.Server in
  let module Trace = Cdw_obs.Trace in
  let module Domain_acct = Cdw_engine.Domain_acct in
  let listen =
    Arg.(required & opt (some sockaddr_conv) None & info [ "listen" ] ~docv:"ADDR" ~doc:"Listen address: a Unix socket path (anything with a slash) or HOST:PORT. Required.")
  in
  let file =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Workflow file to serve (default: generate one from the flags below).")
  in
  let vertices =
    Arg.(value & opt int 100 & info [ "vertices"; "v" ] ~doc:"Vertices of the generated workflow (ignored with FILE).")
  in
  let stages =
    Arg.(value & opt int 5 & info [ "stages"; "k" ] ~doc:"Stages of the generated workflow (ignored with FILE).")
  in
  let density =
    Arg.(value & opt float 0.0 & info [ "density"; "d" ] ~doc:"Minimum inter-stage edge density of the generated workflow (ignored with FILE).")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed (generator and serving sessions).") in
  let algo =
    Arg.(value & opt (some algo_conv) None & info [ "algorithm"; "a" ] ~doc:"Solving algorithm.")
  in
  let shards =
    Arg.(value & opt (some int) None & info [ "shards" ] ~docv:"N" ~doc:"Serve through an $(docv)-shard group (default 1; N > 1 drains on pinned per-shard domains). Ledgers hold one store per shard.")
  in
  let journal =
    Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"DIR" ~doc:"Journal consent into a durable ledger at $(docv). A non-empty $(docv) is resumed (workflow, algorithm, seed and shard count come from the ledger; the flags above are ignored).")
  in
  let fsync =
    Arg.(value & opt (some fsync_conv) None & info [ "fsync" ] ~docv:"POLICY" ~doc:"The ledger's fsync policy: always, never or every:N (default every:32). Requires --journal.")
  in
  let mem_cap =
    Arg.(value & opt (some int) None & info [ "mem-cap-bytes" ] ~docv:"BYTES" ~doc:"Bound resident-session memory: beyond the cap the coldest idle sessions are evicted to a compact parked record at drain boundaries and rehydrated on demand. Served replies are identical with or without the cap. With --shards the cap is split evenly across shards.")
  in
  let trace =
    Arg.(value & flag & info [ "trace" ] ~doc:"Enable the in-process tracer. Clients fetch the export over the wire (serve-bench --connect --trace-out merges it with their own half into one stitched timeline).")
  in
  let flight_out =
    Arg.(value & opt (some string) None & info [ "flight-out" ] ~docv:"FILE" ~doc:"Arm the flight recorder: SIGUSR1 dumps the per-domain rings of recent drain operations to $(docv) as Perfetto JSON, an internal server error dumps them automatically, and a clean shutdown writes a final dump. Always-on and bounded — safe to leave armed in production.")
  in
  let run listen file vertices stages density seed algo shards journal fsync
      mem_cap trace flight_out =
    if fsync <> None && journal = None then
      `Error (false, "--fsync requires --journal (without a ledger there is nothing to fsync)")
    else
    let fresh () =
      let workflow =
        match file with
        | Some path -> (
            match Serialize.load path with
            | Ok (wf, _) -> Ok wf
            | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
            | exception Sys_error msg -> Error msg)
        | None -> (
            match
              Generator.generate ~seed
                {
                  Gen_params.default with
                  Gen_params.n_vertices = vertices;
                  n_constraints = 0;
                  stages;
                  density;
                }
            with
            | instance -> Ok instance.Generator.workflow
            | exception Invalid_argument msg -> Error msg)
      in
      match workflow with
      | Error _ as e -> e
      | Ok wf -> (
          match Serving.create ?algorithm:algo ~seed ?shards wf with
          | s -> Ok s
          | exception Invalid_argument msg -> Error msg)
    in
    let ledger_present dir =
      Sys.file_exists dir && Sys.is_directory dir && Sys.readdir dir <> [||]
    in
    let serving =
      match journal with
      | Some dir when ledger_present dir -> (
          match Serving.resume ?fsync dir with
          | Ok r ->
              Printf.printf "resumed ledger at %s: %d record(s) replayed%s\n"
                dir r.Serving.replayed
                (match r.Serving.damaged with
                | [] -> ""
                | ds ->
                    Printf.sprintf ", damaged tail on ledger(s) %s (truncated)"
                      (String.concat ", " (List.map string_of_int ds)));
              Ok r.Serving.serving
          | Error msg -> Error msg)
      | Some dir -> (
          match fresh () with
          | Ok s ->
              Serving.journal ?fsync ~dir s;
              Ok s
          | Error _ as e -> e)
      | None -> fresh ()
    in
    match serving with
    | Error msg -> `Error (false, msg)
    | Ok serving -> (
        (* After resume (replayed sessions count against the cap) and
           before the first socket request. *)
        Option.iter
          (fun cap -> Serving.set_mem_cap serving (Some cap))
          mem_cap;
        if trace then begin
          Trace.set_process_label "cdw-serve";
          Trace.reset ();
          Trace.set_enabled true
        end;
        Option.iter
          (fun path ->
            (* The context thunk runs inside the SIGUSR1 handler: it
               reads only atomics (per-domain accounting, shard count),
               never a lock. *)
            Trace.set_context
              (Some
                 (fun () ->
                   Json.Object
                     [
                       ( "shards",
                         Json.Number (float_of_int (Serving.shards serving)) );
                       ( "domains",
                         Json.Array
                           (List.map Domain_acct.stats_json
                              (Serving.domain_stats serving)) );
                     ]));
            Trace.install ~path;
            Printf.printf "flight recorder armed: SIGUSR1 dumps to %s\n" path)
          flight_out;
        match Server.start serving listen with
        | exception Unix.Unix_error (e, fn, arg) ->
            Serving.close serving;
            `Error
              ( false,
                Printf.sprintf "%s %s: %s" fn arg (Unix.error_message e) )
        | server ->
            Printf.printf
              "cdw serve: listening on %s (%s, seed %d, %d shard(s)%s)\n%!"
              (string_of_sockaddr (Server.sockaddr server))
              (Algorithms.to_string (Serving.algorithm serving))
              (Serving.seed serving) (Serving.shards serving)
              (match journal with
              | Some dir -> ", journal " ^ dir
              | None -> ", no journal");
            let stop = ref false in
            let reload = ref false in
            let handler = Sys.Signal_handle (fun _ -> stop := true) in
            let previous_int = Sys.signal Sys.sigint handler in
            let previous_term = Sys.signal Sys.sigterm handler in
            (* SIGHUP re-reads the workflow FILE and installs it as the
               next base epoch, live — config reload, daemon style. The
               handler only sets the flag; the install runs here on the
               main thread at the next tick (Server.install_epoch
               serializes it against streaming drains). *)
            let previous_hup =
              try Some (Sys.signal Sys.sighup (Sys.Signal_handle (fun _ -> reload := true)))
              with Invalid_argument _ | Sys_error _ -> None
            in
            let do_reload () =
              reload := false;
              match file with
              | None ->
                  prerr_endline
                    "cdw serve: SIGHUP ignored — no workflow FILE to reload \
                     (epoch installs still work over the wire)"
              | Some path -> (
                  match Serialize.load path with
                  | Error msg ->
                      Printf.eprintf "cdw serve: reload %s: %s\n%!" path msg
                  | exception Sys_error msg ->
                      Printf.eprintf "cdw serve: reload: %s\n%!" msg
                  | Ok (wf, _) -> (
                      match Server.install_epoch server wf with
                      | Ok m ->
                          Printf.printf
                            "cdw serve: installed epoch %d from %s (%d \
                             recomputed, %d pair(s) dropped)\n%!"
                            m.Cdw_engine.Engine.m_epoch path
                            m.Cdw_engine.Engine.m_recomputed
                            m.Cdw_engine.Engine.m_dropped_pairs
                      | Error msg ->
                          Printf.eprintf "cdw serve: reload %s rejected: %s\n%!"
                            path msg))
            in
            while not !stop do
              (try Unix.sleepf 0.2
               with Unix.Unix_error (Unix.EINTR, _, _) -> ());
              if !reload && not !stop then do_reload ()
            done;
            Sys.set_signal Sys.sigint previous_int;
            Sys.set_signal Sys.sigterm previous_term;
            Option.iter (Sys.set_signal Sys.sighup) previous_hup;
            prerr_endline "cdw serve: shutting down";
            Server.stop server;
            (* The final flight dump covers the rings as the server
               went down — the record a post-mortem wants. *)
            Option.iter (fun path -> Trace.flight_write path) flight_out;
            (* Close after stop: flushes and releases the ledger(s), so a
               clean shutdown leaves a strict-clean store behind. *)
            Serving.close serving;
            `Ok ())
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve consent over a socket: submits, drains, withdrawals and \
          metrics through the CRC-framed wire protocol, optionally \
          journaled to a durable (resumable) ledger. The base workflow \
          evolves live: the wire's epoch-install opcode, or SIGHUP to \
          re-read FILE and migrate every session onto it.")
    Term.(
      ret
        (const run $ listen $ file $ vertices $ stages $ density $ seed $ algo
       $ shards $ journal $ fsync $ mem_cap $ trace $ flight_out))

(* ---------------------------------------------------------------- *)
(* store — verify, replay and compact any ledger root                 *)

(* [Serving] resolves the root's layout (one engine's ledger, or a
   group root with group.json), so `cdw store` serves both; every entry
   is labelled with its shard id, and a plain root is shard 0. *)

let ledger_verify_run root strict =
  let module Store = Cdw_store.Store in
  match Serving.verify root with
  | Error msg -> `Error (false, msg)
  | Ok reports ->
      Array.iteri
        (fun i report ->
          Format.printf "@[<v>shard %d:@,%a@]@." i Store.pp_report report)
        reports;
      if strict && not (Array.for_all Store.report_clean reports) then
        `Error (false, "a ledger has a damaged tail (see report above)")
      else `Ok ()

let ledger_replay_run root state =
  let module Store = Cdw_store.Store in
  let module Wal = Cdw_store.Wal in
  match Serving.recover root with
  | Error msg -> `Error (false, msg)
  | Ok r ->
      Array.iteri
        (fun i (sr : Store.recovery) ->
          Format.printf
            "shard %d: %s (seed %d), generation %d, %d snapshot user(s), %d \
             replayed, %d valid byte(s), tail %a@."
            i
            (Algorithms.to_string sr.Store.algorithm)
            sr.Store.seed sr.Store.generation sr.Store.snapshot_users
            sr.Store.replayed sr.Store.valid_end Wal.pp_tail sr.Store.tail)
        r.Serving.shard_recoveries;
      Printf.printf "recovered %d ledger(s) under %s: %d record(s) replayed, %s\n"
        (Array.length r.Serving.shard_recoveries)
        root r.Serving.replayed
        (match r.Serving.damaged with
        | [] -> "all tails clean"
        | ds ->
            Printf.sprintf "damaged tail on ledger(s) %s"
              (String.concat ", " (List.map string_of_int ds)));
      if state then
        Array.iter
          (fun (sr : Store.recovery) ->
            print_endline
              (Json.to_string (Store.snapshot_state_json sr.Store.engine)))
          r.Serving.shard_recoveries;
      `Ok ()

let ledger_compact_run root =
  let module Store = Cdw_store.Store in
  match Serving.resume root with
  | Error msg -> `Error (false, msg)
  | Ok r ->
      Serving.compact r.Serving.serving;
      let after = Array.map Store.generation (Serving.stores r.Serving.serving) in
      Serving.close r.Serving.serving;
      Array.iteri
        (fun i (sr : Store.recovery) ->
          Printf.printf "shard %d: generation %d -> %d\n" i sr.Store.generation
            after.(i))
        r.Serving.shard_recoveries;
      Printf.printf "compacted %d ledger(s) under %s\n" (Array.length after)
        root;
      `Ok ()

let ledger_dir_arg ~docv ~doc =
  Arg.(required & pos 0 (some dir) None & info [] ~docv ~doc)

let strict_flag ~doc = Arg.(value & flag & info [ "strict" ] ~doc)

let state_flag =
  Arg.(value & flag & info [ "state" ] ~doc:"Also print the recovered per-user constraint state as JSON (one object per ledger).")

let store_cmd =
  let module Store = Cdw_store.Store in
  let module Fault = Cdw_store.Fault in
  let dir_arg =
    ledger_dir_arg ~docv:"DIR"
      ~doc:"A ledger root: one engine's store, or a sharded root with group.json."
  in
  let verify_cmd =
    let strict =
      strict_flag
        ~doc:"Fail unless every ledger under the root is clean (no torn or corrupt tail)."
    in
    Cmd.v
      (Cmd.info "verify"
         ~doc:"Scan every WAL under the root, checking every frame CRC and record.")
      Term.(ret (const ledger_verify_run $ dir_arg $ strict))
  in
  let replay_cmd =
    Cmd.v
      (Cmd.info "replay"
         ~doc:"Rebuild engine state from the ledger(s) (snapshot + WAL tail) and report it.")
      Term.(ret (const ledger_replay_run $ dir_arg $ state_flag))
  in
  let compact_cmd =
    Cmd.v
      (Cmd.info "compact"
         ~doc:"Fold every WAL under the root into a fresh snapshot and start an empty next-generation log.")
      Term.(ret (const ledger_compact_run $ dir_arg))
  in
  let fault_cmd =
    let store_dir =
      ledger_dir_arg ~docv:"DIR"
        ~doc:"One store: a plain root, or a group root's DIR/shard-<i>."
    in
    let truncate_tail =
      Arg.(value & opt (some int) None & info [ "truncate-tail" ] ~docv:"N" ~doc:"Cut the last $(docv) bytes off the current WAL (simulates a torn append).")
    in
    let flip_bit =
      Arg.(value & opt (some (pair ~sep:':' int int)) None & info [ "flip-bit" ] ~docv:"BYTE:BIT" ~doc:"Flip one bit of the current WAL (simulates bit rot).")
    in
    let run dir truncate_tail flip_bit =
      if truncate_tail = None && flip_bit = None then
        `Error (true, "no fault requested: pass --truncate-tail or --flip-bit")
      else
        match Store.current_wal_path dir with
        | Error msg -> `Error (false, msg)
        | Ok wal -> (
            try
              Option.iter
                (fun n ->
                  Fault.truncate_tail wal n;
                  Printf.printf "truncated %d tail byte(s) of %s\n" n wal)
                truncate_tail;
              Option.iter
                (fun (byte, bit) ->
                  Fault.flip_bit wal ~byte ~bit;
                  Printf.printf "flipped bit %d of byte %d in %s\n" bit byte wal)
                flip_bit;
              `Ok ()
            with Invalid_argument msg | Failure msg -> `Error (false, msg))
    in
    Cmd.v
      (Cmd.info "fault"
         ~doc:"Inject a fault into the current WAL, for recovery drills.")
      Term.(ret (const run $ store_dir $ truncate_tail $ flip_bit))
  in
  Cmd.group
    (Cmd.info "store"
       ~doc:
         "Inspect, replay, compact and fault-test a durable consent ledger \
          (plain or sharded — the shape is detected from the directory).")
    [ verify_cmd; replay_cmd; compact_cmd; fault_cmd ]

(* ---------------------------------------------------------------- *)
(* trace                                                              *)

let trace_cmd =
  let module Trace_summary = Cdw_obs.Trace_summary in
  let module Prom = Cdw_obs.Prom in
  let trace_file_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Input file.")
  in
  let summarize_cmd =
    let min_coverage =
      Arg.(value & opt (some float) None & info [ "min-drain-coverage" ] ~docv:"FRACTION" ~doc:"Fail unless at least $(docv) (in [0,1]) of the drain wall time is accounted for by named child phases (per shard with --scaling).")
    in
    let scaling =
      Arg.(value & flag & info [ "scaling" ] ~doc:"Report the sharded-drain breakdown instead: per shard, drain wall attributed to execute / journal / sort / gather plus the barrier time spent waiting for the slowest sibling. Works on live traces and flight-recorder dumps; fails on single-engine traces.")
    in
    let run file min_coverage scaling =
      if scaling then
        match Trace_summary.scaling_of_file file with
        | Error msg -> `Error (false, Printf.sprintf "%s: %s" file msg)
        | Ok report -> (
            Format.printf "%a@." Trace_summary.pp_scaling report;
            match min_coverage with
            | None -> `Ok ()
            | Some _ when report.Trace_summary.sc_shards = [] ->
                `Error
                  ( false,
                    "no drains: the trace has group drains but no per-shard \
                     spans — coverage cannot be measured" )
            | Some want -> (
                match
                  List.find_opt
                    (fun r -> r.Trace_summary.sh_coverage < want)
                    report.Trace_summary.sc_shards
                with
                | None -> `Ok ()
                | Some r ->
                    `Error
                      ( false,
                        Printf.sprintf
                          "shard %d drain coverage %.1f%% is below the \
                           required %.1f%%"
                          r.Trace_summary.sh_shard
                          (100.0 *. r.Trace_summary.sh_coverage)
                          (100.0 *. want) )))
      else
        match Trace_summary.of_file file with
        | Error msg -> `Error (false, Printf.sprintf "%s: %s" file msg)
        | Ok report -> (
            Format.printf "%a@." Trace_summary.pp report;
            match min_coverage with
            | None -> `Ok ()
            | Some _ when report.Trace_summary.drain_wall_ms <= 0.0 ->
                `Error
                  ( false,
                    "no drains: the trace has no engine.drain wall time — \
                     coverage cannot be measured" )
            | Some want ->
                let got = Trace_summary.coverage report in
                if got >= want then `Ok ()
                else
                  `Error
                    ( false,
                      Printf.sprintf
                        "drain coverage %.1f%% is below the required %.1f%%"
                        (100.0 *. got) (100.0 *. want) ))
    in
    Cmd.v
      (Cmd.info "summarize"
         ~doc:
           "Aggregate a Chrome trace (as written by serve-bench \
            --trace-out, or a flight-recorder dump) into a per-phase \
            time breakdown; --scaling attributes sharded drain wall to \
            execute/journal/sort/gather/barrier per shard.")
      Term.(ret (const run $ trace_file_arg $ min_coverage $ scaling))
  in
  let prom_lint_cmd =
    let run file =
      match
        let ic = open_in_bin file in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      with
      | exception Sys_error msg -> `Error (false, msg)
      | text -> (
          match Prom.parse text with
          | Error msg -> `Error (false, Printf.sprintf "%s: %s" file msg)
          | Ok samples -> (
              match Prom.lint samples with
              | Error msg -> `Error (false, Printf.sprintf "%s: %s" file msg)
              | Ok l ->
                  Printf.printf
                    "%s: %d samples, %d histogram families, exposition \
                     conforms\n"
                    file l.Prom.l_samples l.Prom.l_histograms;
                  `Ok ()))
    in
    Cmd.v
      (Cmd.info "prom-lint"
         ~doc:
           "Check that a Prometheus text exposition file parses and that \
            every histogram family conforms: cumulative buckets, a closing \
            le=\"+Inf\", and matching _count/_sum series.")
      Term.(ret (const run $ trace_file_arg))
  in
  Cmd.group
    (Cmd.info "trace"
       ~doc:"Inspect telemetry artifacts: trace breakdowns, exposition lint.")
    [ summarize_cmd; prom_lint_cmd ]

(* ---------------------------------------------------------------- *)
(* experiment                                                         *)

let experiment_cmd =
  let profile_conv =
    Arg.conv
      ( (fun s ->
          match Cdw_expers.Profile.of_string s with
          | Some p -> Ok p
          | None -> Error (`Msg "profile must be `quick' or `full'")),
        fun ppf p -> Format.pp_print_string ppf p.Cdw_expers.Profile.label )
  in
  let profile =
    Arg.(
      value
      & opt profile_conv Cdw_expers.Profile.quick
      & info [ "profile" ] ~doc:"Sweep profile: quick (laptop) or full (paper-scale).")
  in
  let results_dir =
    Arg.(value & opt string "results" & info [ "results-dir" ] ~doc:"CSV and chart output directory.")
  in
  let exp_name =
    Arg.(
      value & pos 0 string "all"
      & info [] ~docv:"EXPERIMENT"
          ~doc:
            (String.concat ", "
               ("all" :: List.map fst Cdw_expers.Experiments.registry)))
  in
  let run name profile results_dir =
    let module E = Cdw_expers.Experiments in
    if name = "all" then begin
      E.run_all ~results_dir profile;
      `Ok ()
    end
    else
      match List.assoc_opt name E.registry with
      | Some run ->
          run ~results_dir profile;
          `Ok ()
      | None -> `Error (false, Printf.sprintf "unknown experiment %S" name)
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Reproduce the paper's tables and figures.")
    Term.(ret (const run $ exp_name $ profile $ results_dir))

(* ---------------------------------------------------------------- *)

let main =
  let doc = "consent management in data workflows (EDBT 2023 reproduction)" in
  Cmd.group (Cmd.info "cdw" ~version:"1.0.0" ~doc)
    [
      generate_cmd; show_cmd; solve_cmd; serve_bench_cmd; serve_cmd; store_cmd;
      trace_cmd; experiment_cmd;
    ]

let eval ?argv () = Cmd.eval ?argv main
