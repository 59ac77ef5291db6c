(* The repository benchmark: one workload per process, end to end or
   traced.

     cdw_bench.exe --workload NAME --seed N --seconds S --trace 0|1
     cdw_bench.exe --smoke BENCHMARK.json

   An untraced run (--trace 0) generates every input from the seed,
   then measures two phases, each on a freshly set-up serving value:
   saturated (fixed work, run sixteen times, about S/2 seconds in all
   on the reference host) and paced (an open loop at the workload's
   fixed rate for S/5 seconds of wall time, after the first eight
   saturated runs), and resumes the eighth run's ledger, about S/4
   seconds of it, between the last eight. A traced run (--trace 1)
   repeats shorter phases with and without tracing and reports the
   per-layer metrics. Both check what was served and print, as their
   last line, one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
   Exit 0 when correct, 1 when a check failed, 2 on a usage error or a
   crash (no result line).

   --smoke runs every workload at 1% size in both modes and checks the
   emitted metrics against the declarations in BENCHMARK.json. *)

module Json = Cdw_util.Json
module Metrics = Cdw_engine.Metrics
module Tier = Cdw_engine.Tier
module Domain_acct = Cdw_engine.Domain_acct
module Trace = Cdw_obs.Trace

let now = Unix.gettimeofday

(* The readable summary above the result line; --smoke silences it. *)
let quiet = ref false
let note fmt = Printf.ksprintf (fun s -> if not !quiet then print_endline s) fmt

(* ---------------------------------------------------------------- *)
(* Process and scratch-directory plumbing                            *)

(* A field of /proc/self/status, in kB. *)
let status_kb key =
  let prefix = key ^ ":" in
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec find () =
        match In_channel.input_line ic with
        | None -> failwith ("no " ^ key ^ " in /proc/self/status")
        | Some line when String.starts_with ~prefix line ->
            let digits =
              String.to_seq line
              |> Seq.filter (function '0' .. '9' -> true | _ -> false)
              |> String.of_seq
            in
            float_of_string digits
        | Some _ -> find ()
      in
      find ())

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec dir_bytes path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.fold_left
        (fun acc f -> acc + dir_bytes (Filename.concat path f))
        0 (Sys.readdir path)
  | Unix.S_REG -> (Unix.lstat path).Unix.st_size
  | _ -> 0

(* Sockets and ledgers live under .bench_run/<pid> in the working
   directory, removed at exit. *)
let scratch_root = ".bench_run"
let scratch = Filename.concat scratch_root (string_of_int (Unix.getpid ()))

let fresh_dir =
  let k = ref 0 in
  fun () ->
    if not (Sys.file_exists scratch_root) then Unix.mkdir scratch_root 0o755;
    if not (Sys.file_exists scratch) then Unix.mkdir scratch 0o755;
    incr k;
    let d = Filename.concat scratch (string_of_int !k) in
    Unix.mkdir d 0o755;
    d

(* Best effort: a run that dies mid-phase may still have a shard domain
   writing its ledger while this runs, and another run may share
   .bench_run (its rmdir then fails, and that run removes it). *)
let () =
  at_exit (fun () ->
      (try rm_rf scratch with Unix.Unix_error _ | Sys_error _ -> ());
      try Unix.rmdir scratch_root with Unix.Unix_error _ -> ())

(* ---------------------------------------------------------------- *)
(* Results                                                           *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * string * float) list;  (** name, unit, value *)
}

let result_json r =
  Json.Object
    [
      ("correct", Json.Bool r.correct);
      ("attempted", Json.Number (float_of_int r.attempted));
      ("failed", Json.Number (float_of_int r.failed));
      ( "metrics",
        Json.Object
          (List.map
             (fun (name, unit_, value) ->
               ( name,
                 Json.Object
                   [ ("value", Json.Number value); ("unit", Json.String unit_) ] ))
             r.metrics) );
    ]

(* A failed check is reported and turns the run incorrect; the run
   carries on so every failure shows, not just the first. *)
let check ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then print_endline ("CHECK FAILED: " ^ msg);
      ok)
    fmt

(* ---------------------------------------------------------------- *)
(* Run plan                                                          *)

type plan = {
  w : Workloads.t;
  seed : int;
  shape : Sut.shape;
  reps : int;  (** runs of the saturated phase *)
  n_saturated : int;  (** events in each run of the saturated phase *)
  paced_ms : float;  (** wall time of the paced phase *)
  recover_batch_s : float;  (** time for each batch of timed resumes *)
  every : float option;  (** evolve period, ms of stream time *)
  inputs : Workloads.inputs;
}

(* [scale] shrinks sizes, durations and repetitions together (the smoke
   test runs at 1%). *)
let scaled scale n = max 1 (int_of_float (Float.round (float_of_int n *. scale)))

let shape_of (w : Workloads.t) ~scale =
  {
    w.shape with
    Sut.mem_cap_sessions = Option.map (scaled scale) w.shape.Sut.mem_cap_sessions;
  }

(* How an untraced run spends --seconds on the reference host: the
   saturated phase runs [saturated_reps] times (see [end_to_end]), half
   of it together; the paced phase a fifth; the timed resumes, in one
   batch after each saturated run of the second half, a quarter. *)
let saturated_reps = 16
let saturated_share = 0.5
let paced_share = 0.2
let recover_share = 0.25

let plan (w : Workloads.t) ~seed ~seconds ~scale =
  let n_saturated =
    scaled scale
      (int_of_float
         (w.saturated_rps *. seconds *. saturated_share /. float_of_int saturated_reps))
  in
  let paced_ms = seconds *. paced_share *. 1000.0 *. scale in
  let reps = max 2 (scaled scale saturated_reps) in
  let recover_batch_s =
    seconds *. recover_share *. scale /. float_of_int (reps - (reps / 2))
  in
  let every = Option.map (fun e -> e *. scale) w.evolve_every_ms in
  let inputs =
    Workloads.generate w ~seed ~users:(scaled scale w.users) ~events:n_saturated
      ~span_ms:paced_ms ~every
  in
  {
    w;
    seed;
    shape = shape_of w ~scale;
    reps;
    n_saturated;
    paced_ms;
    recover_batch_s;
    every;
    inputs;
  }

let setup_on shape ~seed wf =
  let dir = fresh_dir () in
  let t0 = now () in
  let sut = Sut.setup shape ~seed ~dir wf in
  (sut, now () -. t0, dir)

let setup p = setup_on p.shape ~seed:p.seed p.inputs.Workloads.workflow

(* One set-up time sample: the mean over as many set-ups (each closed
   and its directory removed straight away) as fill [setup_sample_s], so
   a set-up of a few µs is not read off a µs-resolution clock alone.
   setup_s is the fastest of all samples, spread over the run (before the
   stream is generated, and before and after each saturated run of the
   second half, each on a settled heap; in the first half they would add
   to the memory peak_rss_mb reads). A set-up is a few allocations and
   little else, and how long it takes follows how busy the host's memory
   is: over one process, with a CPU loop steady within 5%, the same
   set-up sample moved between 12 and 27 µs in stretches of a fraction of
   a second to several seconds (see [end_to_end] for why the fastest). *)
let setup_sample_s = 2e-3

let setup_time shape ~seed wf =
  let rec sample k total =
    if total >= setup_sample_s then total /. float_of_int k
    else begin
      let sut, s, dir = setup_on shape ~seed wf in
      Sut.close sut;
      rm_rf dir;
      sample (k + 1) (total +. s)
    end
  in
  sample 0 0.0

(* Between phases, outside any timing: the next phase starts on a heap
   holding no garbage from the last one. Gc.compact alone does not free
   a value closed during the current major cycle (OCaml 5.1 finishes
   that cycle only), so a closed serving value would stay on the heap
   through the next phase; a full major collection frees it. *)
let settle () =
  Gc.full_major ();
  Gc.compact ()

(* The final state of a phase: audited (every cut feasible) and
   digested. *)
let audit label sut =
  let states = Sut.session_states sut in
  let a = Checks.audit (Sut.base sut) states in
  let ok =
    check (a.Checks.infeasible = 0)
      "%s: %d of %d users keep a constrained path in their view" label
      a.Checks.infeasible a.Checks.users
  in
  (states, a, ok)

let tally_ok label (t : Phases.tally) =
  check (t.Phases.lost = 0) "%s: %d accepted request(s) never answered" label
    t.Phases.lost

(* ---------------------------------------------------------------- *)
(* End-to-end run                                                     *)

(* This host alternates between a fast and a slow speed for stretches of
   half a second to tens of seconds (a single-threaded CPU loop takes up
   to 1.8 times as long in the slow ones), and how much of a run falls
   in slow stretches differs from run to run. A median over a run
   follows that share: the median of a 10 ms CPU loop over 10 s windows
   spreads by 0.19 of itself from window to window, its fastest by 0.05.
   The fastest of identical repetitions spread over the run is the cost
   of the code, and the shorter each repetition, the more of them catch
   a fast stretch. So:
   - the saturated phase runs [reps] times, each on a fresh serving
     value over the same events (each must reach the same state), and
     throughput_rps is its requests over the sum, window by window, of
     each 50 ms window's fastest wall time across the runs;
   - recover_s is the fastest resume of the reference run's ledger, each
     from a settled heap, taken in batches that each fill the plan's
     [recover_batch_s] of wall time, one after each saturated run of the
     second half. A first resume, untimed, grows the heap to the resumed
     state's size (it alone would pay those page faults) and is checked
     against the served state;
   - setup_s is the fastest set-up sample (see [setup_sample_s]).
   The process's memory grows over the first few saturated runs, each
   on a fresh serving value, before it levels off (zipf-cold: 22 MB
   after one, 43.5 MB after four to eight, within 1%), so peak_rss_mb is
   read after the first half of them, before the paced phase and the
   resumes. *)

(* [a.(j)] becomes the smaller of [a.(j)] and [b.(j)]. *)
let keep_fastest a b = Array.iteri (fun j x -> a.(j) <- Float.min x b.(j)) a

let end_to_end p ~setups ~pinned =
  let setup_sample () = setup_time p.shape ~seed:p.seed p.inputs.Workloads.workflow in
  let half = p.reps / 2 in
  let run_and_digest () =
    settle ();
    let sut, _, dir = setup p in
    let r = Phases.saturated sut p.inputs ~n:p.n_saturated ~every:p.every in
    let d = Checks.digest (Sut.session_states sut) in
    Sut.close sut;
    rm_rf dir;
    (r, d)
  in
  settle ();
  let rss0 = status_kb "VmRSS" in
  let early = List.init (half - 1) (fun _ -> run_and_digest ()) in
  (* The last run of the first half is the reference: its memory is
     read before the audit and the snapshot allocate, then it is
     audited and its state made durable for the recovery check. *)
  settle ();
  let sut, _, _ = setup p in
  let sat = Phases.saturated sut p.inputs ~n:p.n_saturated ~every:p.every in
  let peak_rss_mb = (status_kb "VmHWM" -. rss0) /. 1024.0 in
  let served, a_sat, ok_sat = audit "saturated" sut in
  let digest = Checks.digest served in
  Sut.persist sut;
  let ledger = Sut.ledger_dir sut in
  Sut.close sut;
  let ledger_bytes = dir_bytes ledger in
  (* Paced phase. *)
  settle ();
  let sut, _, _ = setup p in
  let pc = Phases.paced sut p.inputs ~until_ms:p.paced_ms ~every:p.every in
  let pt = pc.Phases.p_tally in
  let _, _, ok_paced = audit "paced" sut in
  Sut.close sut;
  (* Recovered ≡ served: resume the reference run's ledger. *)
  let resume () =
    settle ();
    let t0 = now () in
    let r = Sut.resume ledger in
    (r, now () -. t0)
  in
  let first, _ = resume () in
  let recovered = Checks.digest (Sut.session_states first) in
  Sut.close first;
  let batch () =
    let t0 = now () in
    let rec timed acc =
      if now () -. t0 >= p.recover_batch_s then acc
      else begin
        let r, s = resume () in
        Sut.close r;
        timed (s :: acc)
      end
    in
    timed []
  in
  let late =
    List.init (p.reps - half) (fun _ ->
        settle ();
        let before = setup_sample () in
        let r = run_and_digest () in
        settle ();
        let after = setup_sample () in
        (r, [ before; after ], batch ()))
  in
  let reruns = early @ List.map (fun (r, _, _) -> r) late in
  let setups = setups @ List.concat_map (fun (_, s, _) -> s) late in
  let resumes = List.concat_map (fun (_, _, b) -> b) late in
  let sats =
    List.map fst early @ (sat :: List.map (fun ((r, _), _, _) -> r) late)
  in
  (* Window boundaries are a function of the events alone, so every run
     has the same windows. *)
  let best = Array.copy sat.Phases.window_s in
  List.iter (fun s -> keep_fastest best s.Phases.window_s) sats;
  let fastest l = List.fold_left Float.min infinity l in
  let recover_s = fastest resumes in
  let throughput =
    float_of_int p.n_saturated /. Array.fold_left ( +. ) 0.0 best
  in
  let st = sat.Phases.s_tally in
  let latency q = Phases.quantile q pc.Phases.latency_ms in
  note "%s seed %d: saturated %d requests, %d drains%s, in %s s; fastest \
        windows %.0f req/s"
    p.w.Workloads.name p.seed p.n_saturated
    (List.length st.Phases.drain_ms)
    (if st.Phases.migrations > 0 then
       Printf.sprintf ", %d migrations" st.Phases.migrations
     else "")
    (String.concat " / "
       (List.map (fun s -> Printf.sprintf "%.3f" s.Phases.wall_s) sats))
    throughput;
  note "  paced %.0f req/s offered: %d latency samples, p50 %.3f ms, p99 %.3f \
        ms, %d drains, backlog peak %d, generator lag p99 %.3f ms%s"
    p.w.Workloads.rate_rps
    (Array.length pc.Phases.latency_ms)
    (latency 0.50) (latency 0.99)
    (List.length pt.Phases.drain_ms)
    pc.Phases.backlog_peak
    (Phases.quantile 0.99 pc.Phases.lag_ms)
    (if pt.Phases.migrations > 0 then
       Printf.sprintf ", %d migrations" pt.Phases.migrations
     else "");
  note "  %d users served, state digest %s; %d timed resumes, fastest %.3f s, \
        median %.3f s; peak RSS +%.1f MB"
    a_sat.Checks.users digest (List.length resumes) recover_s
    (Phases.median resumes) peak_rss_mb;
  note "  %d set-up samples: fastest %.1f us, median %.1f us, slowest %.1f us"
    (List.length setups)
    (fastest setups *. 1e6)
    (Phases.median setups *. 1e6)
    (List.fold_left Float.max 0.0 setups *. 1e6);
  let tallies = pt :: List.map (fun s -> s.Phases.s_tally) sats in
  let ok =
    List.for_all Fun.id
      [
        ok_sat;
        ok_paced;
        List.for_all (tally_ok "saturated") (List.map (fun s -> s.Phases.s_tally) sats);
        tally_ok "paced" pt;
        List.for_all
          (fun (_, d) ->
            check (d = digest)
              "a repeated saturated run reached state %s, the reference %s" d digest)
          reruns;
        check (recovered = digest) "recovered state differs from served state";
        (match pinned with
        | None -> true
        | Some d ->
            check (digest = d) "saturated state digest %s, pinned %s" digest d);
      ]
  in
  let sum f = List.fold_left (fun acc t -> acc + f t) 0 tallies in
  {
    correct = ok;
    attempted = sum (fun t -> t.Phases.submitted);
    failed = sum Phases.failed;
    metrics =
      [
        ("throughput_rps", "req/s", throughput);
        ("setup_s", "s", fastest setups);
        ("utility_retained", "ratio", a_sat.Checks.utility_retained);
        ("peak_rss_mb", "MB", peak_rss_mb);
        ("recover_s", "s", recover_s);
        ( "ledger_bytes_per_req",
          "B",
          float_of_int ledger_bytes /. float_of_int p.n_saturated );
      ];
  }

(* ---------------------------------------------------------------- *)
(* Traced run                                                         *)

(* A traced phase holds every span in memory until export, so traced
   phases are capped at this many requests. *)
let trace_budget = 40_000

let layer_tables = [ "bench.saturated"; "bench.paced"; "bench.recover" ]

let traced p ~scale =
  let budget = max 1 (int_of_float (float_of_int trace_budget *. scale)) in
  let k = min p.n_saturated budget in
  let paced_ms =
    Float.min p.paced_ms
      (float_of_int budget /. p.w.Workloads.rate_rps *. 1000.0)
  in
  let requests_of (t : Phases.tally) = t.Phases.submitted in
  (* Untraced probes: the saturated phase shortened to the traced length,
     and the paced phase at full length. The system's own counters, the
     benchmark's outside timings and the GC figures come from here,
     unperturbed by tracing. *)
  settle ();
  let gc0 = Gc.quick_stat () in
  let sut, _, _ = setup p in
  let probe = Phases.saturated sut p.inputs ~n:k ~every:p.every in
  let sat_u = probe.Phases.s_tally and wall_u = probe.Phases.wall_s in
  let m_sat = Sut.metrics sut and tier = Sut.tier_stats sut in
  let dom_sat = Sut.domain_stats sut in
  Sut.close sut;
  let sut, _, _ = setup p in
  let pc_u = Phases.paced sut p.inputs ~until_ms:p.paced_ms ~every:p.every in
  let m_paced = Sut.metrics sut and dom_paced = Sut.domain_stats sut in
  Sut.close sut;
  let gc1 = Gc.quick_stat () in
  settle ();
  (* Traced: the same phases again, then the recovery drill. The span
     buffers grow until nothing is dropped. *)
  Trace.set_enabled true;
  let rec attempt capacity =
    Trace.set_capacity capacity;
    Trace.reset ();
    let sut, _, _ = setup p in
    let sat_t = Phases.saturated sut p.inputs ~n:k ~every:p.every in
    let served, _, ok_sat = audit "traced saturated" sut in
    Sut.persist sut;
    let ledger = Sut.ledger_dir sut in
    Sut.close sut;
    let sut, _, _ = setup p in
    let pc_t = Phases.paced sut p.inputs ~until_ms:paced_ms ~every:p.every in
    Sut.close sut;
    let r = Trace.span "bench.recover" (fun () -> Sut.resume ledger) in
    let recovered = Sut.session_states r in
    Sut.close r;
    if Trace.dropped () > 0 && capacity < 1 lsl 26 then attempt (capacity * 4)
    else
      let ok_recovered =
        check
          (Checks.digest recovered = Checks.digest served)
          "traced: recovered state differs from served state"
      in
      (sat_t.Phases.s_tally, sat_t.Phases.wall_s, pc_t, ok_sat && ok_recovered)
  in
  let sat_t, wall_t, pc_t, ok_traced = attempt (1 lsl 20) in
  Trace.set_enabled false;
  let dropped = Trace.dropped () in
  let export = Trace.export () in
  let on = (Domain.self () :> int) in
  let tables = List.filter_map (fun root -> Layers.table export ~on ~root) layer_tables in
  List.iter (fun t -> note "%s" (Format.asprintf "%a" Layers.pp t)) tables;
  let total = Layers.totals export in
  let m = Metrics.create () in
  Metrics.merge_into ~into:m m_sat;
  Metrics.merge_into ~into:m m_paced;
  let counter = Metrics.counter m in
  let pct key q = Option.value ~default:0.0 (Metrics.percentile m key q) in
  let summary key = Metrics.summary m key in
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  let fl = float_of_int in
  let probe_requests = requests_of sat_u + requests_of pc_u.Phases.p_tally in
  let traced_requests = requests_of sat_t + requests_of pc_t.Phases.p_tally in
  let doms = dom_sat @ dom_paced in
  let dsum f = fl (List.fold_left (fun acc s -> acc + f s) 0 doms) in
  let dmax f = fl (List.fold_left (fun acc s -> max acc (f s)) 0 doms) in
  let tier_field f = match tier with Some st -> fl (f st) | None -> 0.0 in
  let wall_sum = List.fold_left (fun acc t -> acc +. t.Layers.wall_ms) 0.0 tables in
  let other_sum = List.fold_left (fun acc t -> acc +. t.Layers.other_ms) 0.0 tables in
  let sample = Array.init k (fun i -> (p.inputs.users.(i), p.inputs.requests.(i))) in
  let enc_ns, dec_ns, wire_bytes = Sut.codec_cost sample in
  let migrate = summary "epoch.migrate" in
  let ok =
    List.for_all Fun.id
      [
        ok_traced;
        tally_ok "saturated probe" sat_u;
        tally_ok "paced probe" pc_u.Phases.p_tally;
        tally_ok "traced saturated" sat_t;
        tally_ok "traced paced" pc_t.Phases.p_tally;
        check (dropped = 0) "trace dropped %d span(s)" dropped;
        check
          (List.length tables = List.length layer_tables)
          "missing layer table(s): %d of %d" (List.length tables)
          (List.length layer_tables);
        List.for_all
          (fun t ->
            check (Layers.sums_to_wall t) "layer table %s does not sum to its wall"
              t.Layers.root)
          tables;
      ]
  in
  let paced_drains = pc_u.Phases.p_tally.Phases.drain_ms in
  {
    correct = ok;
    attempted = probe_requests + traced_requests;
    failed =
      List.fold_left ( + ) 0
        (List.map Phases.failed
           [ sat_u; pc_u.Phases.p_tally; sat_t; pc_t.Phases.p_tally ]);
    metrics =
      [
        ("serving.submit_us", "us", ratio (sat_u.Phases.submit_s *. 1e6) (fl (requests_of sat_u)));
        ("serving.drain_ms_p50", "ms", Phases.median paced_drains);
        ( "serving.drain_us_per_req",
          "us",
          ratio
            (List.fold_left ( +. ) 0.0 sat_u.Phases.drain_ms *. 1000.0)
            (fl (requests_of sat_u)) );
        ("serving.drains", "count", fl (List.length paced_drains));
        ("engine.drain.dequeue_ms", "ms", total "drain.dequeue");
        ("engine.drain.plan_ms", "ms", total "drain.plan");
        ("engine.drain.execute_ms", "ms", total "drain.execute");
        ("engine.drain.settle_ms", "ms", total "drain.settle");
        ( "engine.coalesced_frac",
          "ratio",
          ratio (fl (counter "engine.coalesced")) (fl (counter "engine.submitted")) );
        ("engine.queue_wait_p50_ms", "ms", pct "queue_wait" 0.5);
        ( "solve.count",
          "count",
          match summary "solve" with Some s -> fl s.Cdw_util.Stats.n | None -> 0.0 );
        ( "solve.per_req",
          "ratio",
          ratio
            (match summary "solve" with Some s -> fl s.Cdw_util.Stats.n | None -> 0.0)
            (fl probe_requests) );
        ("solve.p50_ms", "ms", pct "solve" 0.5);
        ("solve.p99_ms", "ms", pct "solve" 0.99);
        ("solve.paths_ms", "ms", total "solve.paths");
        ("solve.weights_ms", "ms", total "solve.weights");
        ("solve.multicut_ms", "ms", total "solve.multicut");
        ("solve.mincut_ms", "ms", total "solve.mincut");
        ("solve.enforce_ms", "ms", total "solve.enforce");
        ("cut.find_paths_ms", "ms", total "multicut.find_paths");
        ("cut.hitting_set_ms", "ms", total "multicut.hitting_set");
        ("cut.minimalize_ms", "ms", total "multicut.minimalize");
        ( "index.path_hit_frac",
          "ratio",
          ratio
            (fl (counter "index.paths.hit"))
            (fl (counter "index.paths.hit" + counter "index.paths.miss")) );
        ("index.path_overflow", "count", fl (counter "index.paths.overflow"));
        ("index.enumerate_ms", "ms", total "index.enumerate");
        ("tier.evictions", "count", tier_field (fun s -> s.Tier.evictions));
        ("tier.hydrations", "count", tier_field (fun s -> s.Tier.hydrations));
        ("tier.evict_ms", "ms", total "tier.evict");
        ("tier.hydrate_ms", "ms", total "tier.hydrate");
        ("tier.resident_bytes_peak", "B", tier_field (fun s -> s.Tier.resident_bytes_peak));
        ( "tier.cold_frac",
          "ratio",
          ratio
            (tier_field (fun s -> s.Tier.parked))
            (tier_field (fun s -> s.Tier.parked + s.Tier.resident)) );
        ("wal.appends", "count", fl (counter "store.wal.appends"));
        ("wal.fsyncs", "count", fl (counter "store.wal.fsyncs"));
        ("wal.append_ms", "ms", total "wal.append");
        ("wal.fsync_ms", "ms", total "wal.fsync");
        ("store.snapshot_ms", "ms", total "store.snapshot");
        ("store.scan_ms", "ms", total "store.scan");
        ("store.replay_ms", "ms", total "store.replay");
        ("shard.busy_ms", "ms", dsum (fun s -> s.Domain_acct.s_busy_us) /. 1000.0);
        ("shard.barrier_frac", "ratio", Domain_acct.barrier_fraction doms);
        ("shard.inbox_depth_peak", "count", dmax (fun s -> s.Domain_acct.s_inbox_depth_peak));
        ("shard.execute_ms", "ms", dsum (fun s -> s.Domain_acct.s_execute_us) /. 1000.0);
        ("shard.journal_ms", "ms", dsum (fun s -> s.Domain_acct.s_journal_us) /. 1000.0);
        ("shard.sort_ms", "ms", dsum (fun s -> s.Domain_acct.s_sort_us) /. 1000.0);
        ("shard.gather_ms", "ms", dsum (fun s -> s.Domain_acct.s_gather_us) /. 1000.0);
        ( "shard.journal_lag_peak_us",
          "us",
          dmax (fun s -> s.Domain_acct.s_journal_lag_peak_us) );
        ("wire.encode_ns", "ns", enc_ns);
        ("wire.decode_ns", "ns", dec_ns);
        ("wire.bytes_per_req", "B", wire_bytes);
        ("net.request_ms", "ms", total "net.request");
        ("group.merge_ms", "ms", total "group.merge");
        ( "epoch.migrate_ms_max",
          "ms",
          match migrate with Some s -> s.Cdw_util.Stats.max | None -> 0.0 );
        ( "epoch.migrate_ms_total",
          "ms",
          match migrate with
          | Some s -> s.Cdw_util.Stats.mean *. fl s.Cdw_util.Stats.n
          | None -> 0.0 );
        ("epoch.users_recomputed", "count", fl (counter "epoch.users_recomputed"));
        ("epoch.users_remapped", "count", fl (counter "epoch.users_remapped"));
        ( "gc.minor_words_per_req",
          "words",
          ratio (gc1.Gc.minor_words -. gc0.Gc.minor_words) (fl probe_requests) );
        ( "gc.major_collections",
          "count",
          fl (gc1.Gc.major_collections - gc0.Gc.major_collections) );
        ("paced.latency_p50_ms", "ms", Phases.quantile 0.50 pc_u.Phases.latency_ms);
        ("paced.latency_p99_ms", "ms", Phases.quantile 0.99 pc_u.Phases.latency_ms);
        ("paced.samples", "count", fl (Array.length pc_u.Phases.latency_ms));
        ("bench.gen_lag_p99_ms", "ms", Phases.quantile 0.99 pc_u.Phases.lag_ms);
        ("bench.backlog_peak", "count", fl pc_u.Phases.backlog_peak);
        ("bench.attributed_frac", "ratio", 1.0 -. ratio other_sum wall_sum);
        ("bench.trace_overhead_frac", "ratio", (wall_t /. wall_u) -. 1.0);
      ];
  }

(* ---------------------------------------------------------------- *)
(* Entry points                                                       *)

let run (w : Workloads.t) ~seed ~seconds ~trace ~scale =
  if trace then traced (plan w ~seed ~seconds ~scale) ~scale
  else
    let setups = [ setup_time (shape_of w ~scale) ~seed (Workloads.workflow w) ] in
    let pinned =
      if seed = 42 && seconds = Workloads.pinned_seconds && scale = 1.0 then
        Some w.Workloads.pinned_digest
      else None
    in
    end_to_end (plan w ~seed ~seconds ~scale) ~setups ~pinned

(* Every workload at 1% size, untraced and traced: each run must be
   correct and emit exactly the declared metrics, with their units. *)
let smoke file =
  match Declared.load file with
  | Error e ->
      prerr_endline ("smoke: " ^ e);
      exit 2
  | Ok d ->
      quiet := true;
      let ok = ref true in
      let fail fmt =
        Printf.ksprintf
          (fun m ->
            print_endline ("smoke: " ^ m);
            ok := false)
          fmt
      in
      let names = List.map (fun (w : Workloads.t) -> w.name) Workloads.all in
      if List.sort compare names <> List.sort compare d.Declared.workloads then
        fail "BENCHMARK.json declares workloads [%s], the benchmark has [%s]"
          (String.concat ", " d.Declared.workloads)
          (String.concat ", " names);
      List.iter
        (fun (w : Workloads.t) ->
          List.iter
            (fun trace ->
              let r =
                run w ~seed:42 ~seconds:(float_of_int d.Declared.run_seconds)
                  ~trace ~scale:0.01
              in
              let mode = if trace then "traced" else "untraced" in
              if not r.correct then fail "%s %s: incorrect" w.name mode;
              if r.attempted < 1 then fail "%s %s: nothing attempted" w.name mode;
              let declared = if trace then d.Declared.per_layer else d.Declared.end_to_end in
              List.iter
                (fun (m : Declared.metric) ->
                  match List.find_opt (fun (n, _, _) -> n = m.name) r.metrics with
                  | None -> fail "%s %s: %s not emitted" w.name mode m.name
                  | Some (_, u, _) when u <> m.unit_ ->
                      fail "%s %s: %s in %s, declared %s" w.name mode m.name u m.unit_
                  | Some (_, _, v) when not (Float.is_finite v) ->
                      fail "%s %s: %s is not finite" w.name mode m.name
                  | Some _ -> ())
                declared;
              List.iter
                (fun (n, _, _) ->
                  if not (Declared.valid_name n) then fail "bad metric name %S" n;
                  if not (List.exists (fun (m : Declared.metric) -> m.name = n) declared)
                  then fail "%s %s: %s emitted but not declared" w.name mode n)
                r.metrics)
            [ false; true ])
        Workloads.all;
      print_endline (if !ok then "smoke: ok" else "smoke: FAILED");
      exit (if !ok then 0 else 1)

let usage () =
  prerr_endline
    "usage: cdw_bench --workload NAME --seed N --seconds S --trace 0|1\n\
    \       cdw_bench --smoke BENCHMARK.json";
  exit 2

let () =
  let workload = ref None and seed = ref None and seconds = ref None
  and trace = ref None in
  let rec parse = function
    | [] -> ()
    | [ "--smoke"; file ] -> smoke file
    | "--workload" :: v :: rest ->
        workload := Workloads.find v;
        if !workload = None then (
          Printf.eprintf "unknown workload %S\n" v;
          usage ());
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        parse rest
    | "--seconds" :: v :: rest ->
        seconds := Option.bind (float_of_string_opt v) (fun s -> if s > 0.0 then Some s else None);
        parse rest
    | "--trace" :: v :: rest ->
        trace := (match v with "0" -> Some false | "1" -> Some true | _ -> None);
        parse rest
    | arg :: _ ->
        Printf.eprintf "unknown argument %S\n" arg;
        usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some seed, Some seconds, Some trace -> (
      match run w ~seed ~seconds ~trace ~scale:1.0 with
      | r ->
          print_endline (Json.to_string ~pretty:false (result_json r));
          exit (if r.correct then 0 else 1)
      | exception e ->
          Printf.eprintf "cdw_bench: %s\n" (Printexc.to_string e);
          exit 2)
  | _ -> usage ()
