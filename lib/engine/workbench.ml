module Algorithms = Cdw_core.Algorithms
module Constraint_set = Cdw_core.Constraint_set
module Gen_params = Cdw_workload.Gen_params
module Generator = Cdw_workload.Generator
module Json = Cdw_util.Json
module Reach = Cdw_graph.Reach
module Splitmix = Cdw_util.Splitmix
module Timing = Cdw_util.Timing
module Workflow = Cdw_core.Workflow

type config = {
  n_vertices : int;
  stages : int;
  density : float;
  n_sessions : int;
  batches_per_session : int;
  pairs_per_batch : int;
  withdrawals : bool;
  seed : int;
  algorithm : Algorithms.name;
}

let default =
  {
    n_vertices = 100;
    stages = 5;
    density = 0.0;
    n_sessions = 50;
    batches_per_session = 4;
    pairs_per_batch = 2;
    withdrawals = true;
    seed = 42;
    algorithm = Algorithms.Remove_first_edge;
  }

let quick =
  {
    default with
    n_vertices = 60;
    n_sessions = 12;
    batches_per_session = 2;
  }

type result = {
  config : config;
  n_requests : int;
  naive_ms : float;
  engine_ms : float;
  speedup : float;
  naive_rps : float;
  engine_rps : float;
  engine_rps_median : float;
  path_cache_hits : int;
  view_session_bytes : int;
  copy_session_bytes : int;
  memory_ratio : float;
  metrics : Json.t;
}

let generate config =
  Generator.generate ~seed:config.seed
    {
      Gen_params.default with
      Gen_params.n_vertices = config.n_vertices;
      n_constraints = 0;
      stages = config.stages;
      density = config.density;
    }

(* All connected (user, purpose) pairs of the base — the pool every
   session draws its constraints from. *)
let connected_pairs wf =
  let snapshot = Reach.Snapshot.create (Workflow.graph wf) in
  let purposes = Workflow.purposes wf in
  Array.of_list
    (List.concat_map
       (fun u ->
         List.filter_map
           (fun p -> if Reach.Snapshot.reaches snapshot u p then Some (u, p) else None)
           purposes)
       (Workflow.users wf))

let user_name i = Printf.sprintf "user-%04d" i

(* The request script: per-session batches interleaved round-robin
   (sessions compete as they would under live traffic), withdrawals
   last. Deterministic in [config.seed]. *)
let script config pairs =
  let rng = Splitmix.create (config.seed lxor 0x57A7E) in
  let batches =
    Array.init config.n_sessions (fun _ ->
        Array.init config.batches_per_session (fun _ ->
            List.init config.pairs_per_batch (fun _ -> Splitmix.pick rng pairs)))
  in
  let requests = ref [] in
  for b = 0 to config.batches_per_session - 1 do
    for s = 0 to config.n_sessions - 1 do
      requests := (user_name s, Engine.Add batches.(s).(b)) :: !requests
    done
  done;
  if config.withdrawals then
    for s = 0 to config.n_sessions - 1 do
      match batches.(s).(0) with
      | pair :: _ -> requests := (user_name s, Engine.Withdraw [ pair ]) :: !requests
      | [] -> ()
    done;
  List.rev !requests

(* The stateless baseline: per request, rebuild the user's full
   constraint set and solve it from scratch on the raw base. *)
let run_naive config wf requests =
  let accumulated : (string, (int * int) list) Hashtbl.t = Hashtbl.create 64 in
  let solve_from_scratch user =
    let pairs = Option.value ~default:[] (Hashtbl.find_opt accumulated user) in
    if pairs <> [] then
      match Constraint_set.make wf (List.sort_uniq compare pairs) with
      | Ok cs -> ignore (Algorithms.solve config.algorithm wf cs)
      | Error _ -> ()
  in
  List.iter
    (fun (user, request) ->
      let before = Option.value ~default:[] (Hashtbl.find_opt accumulated user) in
      (match (request : Engine.request) with
      | Engine.Add pairs -> Hashtbl.replace accumulated user (before @ pairs)
      | Engine.Withdraw pairs ->
          Hashtbl.replace accumulated user
            (List.filter (fun p -> not (List.mem p pairs)) before)
      | Engine.Resolve -> ());
      solve_from_scratch user)
    requests

let run_engine config wf requests =
  let engine = Engine.create ~algorithm:config.algorithm ~seed:config.seed wf in
  List.iter (fun (user, request) -> Engine.submit engine ~user request) requests;
  let replies = Engine.drain engine in
  (engine, replies)

(* Marginal per-session resident bytes over a shared frozen base:
   reachable words of (base, k copies) minus base alone, divided by k.
   Shared blocks are counted once, so view copies are charged only for
   their private removal mask while deep (thawed) copies are charged
   the whole duplicated workflow — the number a pool of sessions
   actually pays per member. *)
let session_bytes wf =
  let word = Sys.word_size / 8 in
  let k = 16 in
  let base = Workflow.freeze wf in
  let marginal make =
    let copies = Array.init k (fun _ -> make ()) in
    let with_copies = Obj.reachable_words (Obj.repr (base, copies)) in
    let base_only = Obj.reachable_words (Obj.repr base) in
    (with_copies - base_only) * word / k
  in
  let view_bytes = marginal (fun () -> Workflow.copy base) in
  let copy_bytes = marginal (fun () -> Workflow.thaw base) in
  (view_bytes, copy_bytes)

(* Best-of-[trials] wall time, plus every trial's. Both servers are
   stateless across trials (fresh tables / fresh engine per call), so
   the minimum is the run least disturbed by the rest of the machine. *)
let best_of trials f =
  let rec go best times i =
    if i >= trials then (best, times)
    else
      let r, ms = Timing.time_f f in
      let best =
        match best with Some (_, b) when b <= ms -> best | _ -> Some (r, ms)
      in
      go best (ms :: times) (i + 1)
  in
  match go None [] 0 with
  | Some x, times -> (x, times)
  | None, _ -> invalid_arg "Workbench: trials must be >= 1"

(* The benchmark inputs alone — base workflow plus request script —
   for harnesses that serve the identical workload through a different
   front end (the sharded group's scaling bench). *)
let script_for config wf =
  let pairs = connected_pairs wf in
  if Array.length pairs = 0 then
    invalid_arg "Workbench: workflow has no connected pairs";
  script config pairs

let workload config =
  let instance = generate config in
  let wf = instance.Generator.workflow in
  (wf, script_for config wf)

let run ?(trials = 3) config =
  let wf, requests = workload config in
  let n_requests = List.length requests in
  let ((), naive_ms), _ =
    best_of trials (fun () -> run_naive config wf requests)
  in
  let ((engine, replies), engine_ms), engine_trials_ms =
    best_of trials (fun () -> run_engine config wf requests)
  in
  let median_ms =
    let a = Array.of_list engine_trials_ms in
    Array.sort Float.compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
  in
  List.iter
    (fun (r : Engine.reply) ->
      match r.Engine.result with
      | Ok () -> ()
      | Error msg ->
          invalid_arg (Printf.sprintf "Workbench.run: request failed: %s" msg))
    replies;
  let rps ms = if ms > 0.0 then float_of_int n_requests /. (ms /. 1000.0) else infinity in
  let view_session_bytes, copy_session_bytes = session_bytes wf in
  {
    config;
    n_requests;
    naive_ms;
    engine_ms;
    speedup = (if engine_ms > 0.0 then naive_ms /. engine_ms else infinity);
    naive_rps = rps naive_ms;
    engine_rps = rps engine_ms;
    engine_rps_median = rps median_ms;
    path_cache_hits =
      Metrics.counter (Engine.metrics engine) "index.paths.hit";
    view_session_bytes;
    copy_session_bytes;
    memory_ratio =
      (if view_session_bytes > 0 then
         float_of_int copy_session_bytes /. float_of_int view_session_bytes
       else infinity);
    metrics = Metrics.to_json (Engine.metrics engine);
  }

let config_json c =
  Json.Object
    [
      ("n_vertices", Json.Number (float_of_int c.n_vertices));
      ("stages", Json.Number (float_of_int c.stages));
      ("density", Json.Number c.density);
      ("n_sessions", Json.Number (float_of_int c.n_sessions));
      ("batches_per_session", Json.Number (float_of_int c.batches_per_session));
      ("pairs_per_batch", Json.Number (float_of_int c.pairs_per_batch));
      ("withdrawals", Json.Bool c.withdrawals);
      ("seed", Json.Number (float_of_int c.seed));
      ("algorithm", Json.String (Algorithms.to_string c.algorithm));
    ]

let result_json r =
  Json.Object
    [
      ("config", config_json r.config);
      ("n_requests", Json.Number (float_of_int r.n_requests));
      ("naive_ms", Json.Number r.naive_ms);
      ("engine_ms", Json.Number r.engine_ms);
      ("speedup", Json.Number r.speedup);
      ("naive_rps", Json.Number r.naive_rps);
      ("engine_rps", Json.Number r.engine_rps);
      ("engine_rps_median", Json.Number r.engine_rps_median);
      ("path_cache_hits", Json.Number (float_of_int r.path_cache_hits));
      ( "session_bytes",
        Json.Object
          [
            ("view", Json.Number (float_of_int r.view_session_bytes));
            ("copy", Json.Number (float_of_int r.copy_session_bytes));
            ("ratio", Json.Number r.memory_ratio);
          ] );
      ("metrics", r.metrics);
    ]

let pp ppf r =
  let c = r.config in
  Format.fprintf ppf
    "@[<v>serve-bench: %d sessions x (%d adds of %d + %s) on %d vertices \
     (k=%d, d=%.2f), algorithm %s@,\
     requests        %d@,\
     naive  (scratch)  %10.1f ms  %8.0f req/s@,\
     engine (drain)    %10.1f ms  %8.0f req/s  (median trial %.0f req/s)@,\
     speedup         %.2fx@,\
     path cache hits %d@,\
     session memory  %d B/view vs %d B/copy (%.1fx less)@]"
    c.n_sessions c.batches_per_session c.pairs_per_batch
    (if c.withdrawals then "1 withdrawal" else "no withdrawals")
    c.n_vertices c.stages c.density
    (Algorithms.to_string c.algorithm)
    r.n_requests r.naive_ms r.naive_rps r.engine_ms r.engine_rps
    r.engine_rps_median r.speedup r.path_cache_hits r.view_session_bytes
    r.copy_session_bytes r.memory_ratio
