module Engine = Cdw_engine.Engine
module Json = Cdw_util.Json
module Tier = Cdw_engine.Tier
module Timing = Cdw_util.Timing
module Traffic = Cdw_workload.Traffic
module Evolve = Cdw_workload.Evolve
module Workbench = Cdw_engine.Workbench

type target = {
  shards : int;
  base : Cdw_core.Workflow.t;
  reset : string list -> unit;
  submit : user:string -> Engine.request -> unit;
  drain : unit -> Engine.reply list;
  install : Cdw_core.Workflow.t -> unit;
  serving : unit -> Serving.t option;
}

let in_process make =
  let cur = ref (make ()) in
  (* A value nothing was submitted to is still fresh: the first trial
     serves on the value built here rather than on a second one. *)
  let used = ref false in
  {
    shards = Serving.shards !cur;
    base = Serving.base !cur;
    reset =
      (fun _ ->
        if !used then begin
          Serving.close !cur;
          cur := make ();
          used := false
        end);
    submit =
      (fun ~user request ->
        used := true;
        Serving.submit !cur ~user request);
    drain = (fun () -> Serving.drain !cur);
    install = (fun wf -> ignore (Serving.migrate !cur wf));
    serving = (fun () -> Some !cur);
  }

let rate n ms = if ms > 0.0 then float_of_int n /. (ms /. 1000.0) else infinity

(* Nearest-rank p999 over every sample, exact (no histogram buckets). *)
let p999 = function
  | [] -> 0.0
  | samples ->
      let a = Array.of_list samples in
      Array.sort Float.compare a;
      a.(int_of_float (0.999 *. float_of_int (Array.length a - 1)))

type run = {
  shards : int;
  n_requests : int;
  ms : float;
  rps : float;
  p999_ms : float;
}

let serve ?(trials = 3) (target : target) config =
  if trials < 1 then invalid_arg "Shard_bench.serve: trials must be >= 1";
  let script = Workbench.script_for config target.base in
  let users = List.sort_uniq compare (List.map fst script) in
  let trial () =
    target.reset users;
    let replies, ms =
      Timing.time_f (fun () ->
          List.iter
            (fun (user, request) -> target.submit ~user request)
            script;
          target.drain ())
    in
    List.iter
      (fun (r : Engine.reply) ->
        match r.Engine.result with
        | Ok () -> ()
        | Error msg ->
            invalid_arg
              (Printf.sprintf "Shard_bench.serve: request for %s failed: %s"
                 r.Engine.user msg))
      replies;
    (ms, replies)
  in
  (* Best-of-trials like Workbench.run: the minimum is the
     least-disturbed measurement. *)
  let rec go i ((best_ms, _) as best) =
    if i >= trials then best
    else
      let ((ms, _) as t) = trial () in
      go (i + 1) (if best_ms <= ms then best else t)
  in
  let ms, replies = go 1 (trial ()) in
  let n_requests = List.length script in
  {
    shards = target.shards;
    n_requests;
    ms;
    rps = rate n_requests ms;
    p999_ms =
      p999 (List.map (fun (r : Engine.reply) -> r.Engine.time_ms) replies);
  }

let run_json (r : run) =
  Json.Object
    [
      ("shards", Json.Number (float_of_int r.shards));
      ("n_requests", Json.Number (float_of_int r.n_requests));
      ("engine_ms", Json.Number r.ms);
      ("engine_rps", Json.Number r.rps);
      ("p999_ms", Json.Number r.p999_ms);
    ]

(* ---------------------------------------------------------------- *)
(* Open-loop traffic serving: pump a Traffic stream through a target,
   draining at synthetic-time window boundaries.                      *)

type traffic_run = {
  t_shards : int;
  t_requests : int;
  t_users : int;  (* distinct users the stream touched *)
  t_errors : int;
  t_ms : float;
  t_rps : float;
  t_p999_ms : float;
  t_drains : int;
  t_epochs : int;  (* --evolve steps that fired (base migrations) *)
  t_tier : Tier.stats option;
  t_refine : Engine.refine_stats option;
}

let request_of_op = function
  | Traffic.Install pairs -> Engine.Add pairs
  | Traffic.Withdraw pairs -> Engine.Withdraw pairs
  (* A query is a read-only touch: the empty add is Incremental's free
     no-op, but it still routes through the session — hydrating it if
     parked, exactly what a consent lookup would do. *)
  | Traffic.Query -> Engine.Add []

let window_ms = 50.0

let serve_traffic ?(evolve = []) ?(refine = false) (target : target) spec =
  (* [refine] rides the drain cadence: the windows below play the role
     of the production idle loop, stepping the background refiner
     between drains. *)
  let refiner =
    match (refine, target.serving ()) with
    | false, _ -> None
    | true, None ->
        invalid_arg "Shard_bench.serve_traffic: refinement is in-process only"
    | true, Some serving ->
        if Serving.refine_stats serving = None then
          Serving.set_refine serving true;
        Some serving
  in
  let gen =
    Traffic.create spec ~pairs:(Workbench.connected_pairs target.base)
  in
  let errors = ref 0 in
  let latencies = ref [] in
  let drains = ref 0 in
  (* The evolve schedule runs on the stream's synthetic clock, like the
     drain cadence: a step fires at the first drain boundary at or past
     its at_ms, i.e. always between windows — a migration is a
     drain-boundary operation. Steps chain: each mutates the base the
     previous one installed, kept here so both transports install the
     same mutants. *)
  let base = ref target.base in
  let steps = ref evolve in
  let epochs = ref 0 in
  let fire_due now =
    let rec go () =
      match !steps with
      | (s : Evolve.step) :: rest when s.Evolve.at_ms <= now ->
          steps := rest;
          base := Evolve.mutate s !base;
          target.install !base;
          incr epochs;
          go ()
      | _ -> ()
    in
    go ()
  in
  let drain () =
    List.iter
      (fun (r : Engine.reply) ->
        latencies := r.Engine.time_ms :: !latencies;
        match r.Engine.result with Ok () -> () | Error _ -> incr errors)
      (target.drain ());
    incr drains
  in
  let run () =
    (* Open-loop pump: submit every event of the current synthetic-time
       window, drain at the boundary, repeat. The drain cadence is a
       function of the stream's own timestamps, so a run is identical
       whatever the wall-clock speed of the machine. *)
    let rec pump window_end =
      match Traffic.next gen with
      | None -> ()
      | Some { Traffic.at_ms; user; op } ->
          let window_end =
            if at_ms >= window_end then begin
              drain ();
              fire_due window_end;
              Option.iter
                (fun s -> ignore (Serving.refine_step ~max:4 s))
                refiner;
              let skipped =
                Float.of_int
                  (int_of_float ((at_ms -. window_end) /. window_ms))
              in
              window_end +. ((skipped +. 1.0) *. window_ms)
            end
            else window_end
          in
          target.submit ~user (request_of_op op);
          pump window_end
    in
    pump window_ms;
    drain ();
    (* Steps scheduled past the stream's end still fire — the schedule
       is a contract, and the post-run state must be on its last
       epoch. *)
    fire_due infinity;
    (* Flush the refiner: solve everything still queued, then one last
       drain so the staged improvements install (installation is a
       drain-boundary operation). *)
    Option.iter
      (fun s ->
        while Serving.refine_step ~max:16 s > 0 do () done;
        drain ())
      refiner
  in
  let (), ms = Timing.time_f run in
  let n = Traffic.generated gen in
  let serving = target.serving () in
  {
    t_shards = target.shards;
    t_requests = n;
    t_users = Traffic.distinct_users gen;
    t_errors = !errors;
    t_ms = ms;
    t_rps = rate n ms;
    t_p999_ms = p999 !latencies;
    t_drains = !drains;
    t_epochs = !epochs;
    t_tier = Option.bind serving Serving.tier_stats;
    t_refine = Option.bind serving Serving.refine_stats;
  }

let traffic_run_json r =
  let n k v = (k, Json.Number (float_of_int v)) in
  let tier =
    match r.t_tier with
    | None -> []
    | Some (st : Tier.stats) ->
        [
          n "mem_cap_bytes" st.Tier.cap_bytes;
          n "session_bytes" st.Tier.session_bytes;
          n "sessions_resident_peak" st.Tier.resident_peak;
          n "resident_bytes_peak" st.Tier.resident_bytes_peak;
          n "hydrations" st.Tier.hydrations;
          n "evictions" st.Tier.evictions;
          n "parked" st.Tier.parked;
        ]
  in
  let refine =
    match r.t_refine with
    | None -> []
    | Some (rs : Engine.refine_stats) ->
        [
          ( "refine",
            Json.Object
              [
                n "computed" rs.Engine.rs_computed;
                n "improved" rs.Engine.rs_improved;
                n "refinements" rs.Engine.rs_installed;
                n "discarded" rs.Engine.rs_discarded;
                ( "utility_reclaimed",
                  Json.Number rs.Engine.rs_utility_reclaimed );
              ] );
        ]
  in
  Json.Object
    ([
       n "shards" r.t_shards;
       n "n_requests" r.t_requests;
       n "distinct_users" r.t_users;
       n "errors" r.t_errors;
       ("engine_ms", Json.Number r.t_ms);
       ("engine_rps", Json.Number r.t_rps);
       ("p999_ms", Json.Number r.t_p999_ms);
       n "drains" r.t_drains;
     ]
    @ (if r.t_epochs > 0 then [ n "epochs_installed" r.t_epochs ] else [])
    @ tier @ refine)

let pp_traffic ppf r =
  Format.fprintf ppf
    "@[<v>traffic: %d requests, %d users, %d shards@,\
     \  %10.1f ms  %8.0f req/s  p999 %.3f ms  (%d drains%s)@]" r.t_requests
    r.t_users r.t_shards r.t_ms r.t_rps r.t_p999_ms r.t_drains
    (if r.t_epochs > 0 then Printf.sprintf ", %d epoch install(s)" r.t_epochs
     else "");
  (match r.t_tier with
  | None -> ()
  | Some (st : Tier.stats) ->
      Format.fprintf ppf
        "@,\
         @[<v>  tier: cap %d B, %d B/session, peak %d resident (%d B), %d \
         evictions, %d hydrations@]"
        st.Tier.cap_bytes st.Tier.session_bytes st.Tier.resident_peak
        st.Tier.resident_bytes_peak st.Tier.evictions st.Tier.hydrations);
  match r.t_refine with
  | None -> ()
  | Some (rs : Engine.refine_stats) ->
      Format.fprintf ppf
        "@,\
         @[<v>  refine: %d solves, %d improved, %d installed, %d discarded, \
         %.3f utility reclaimed@]"
        rs.Engine.rs_computed rs.Engine.rs_improved rs.Engine.rs_installed
        rs.Engine.rs_discarded rs.Engine.rs_utility_reclaimed

type row = { r_shards : int; r_ms : float; r_rps : float; r_speedup : float }

let scaling config =
  let wf, _ = Workbench.workload config in
  let runs =
    List.map
      (fun shards ->
        let target =
          in_process (fun () ->
              Serving.create ~algorithm:config.Workbench.algorithm
                ~seed:config.Workbench.seed ~shards wf)
        in
        let run = serve target config in
        Option.iter Serving.close (target.serving ());
        run)
      [ 1; 2; 4 ]
  in
  match runs with
  | [] -> []
  | first :: _ ->
      List.map
        (fun (r : run) ->
          {
            r_shards = r.shards;
            r_ms = r.ms;
            r_rps = r.rps;
            r_speedup = (if r.ms > 0.0 then first.ms /. r.ms else infinity);
          })
        runs

let scaling_json rows =
  Json.Array
    (List.map
       (fun r ->
         Json.Object
           [
             ("shards", Json.Number (float_of_int r.r_shards));
             ("engine_ms", Json.Number r.r_ms);
             ("engine_rps", Json.Number r.r_rps);
             ("speedup_vs_one", Json.Number r.r_speedup);
           ])
       rows)

let pp_scaling ppf rows =
  Format.fprintf ppf "@[<v>shard scaling (identical workload per row):@,";
  List.iter
    (fun r ->
      Format.fprintf ppf "  %2d shards  %10.1f ms  %8.0f req/s  %5.2fx@,"
        r.r_shards r.r_ms r.r_rps r.r_speedup)
    rows;
  Format.fprintf ppf "@]"
