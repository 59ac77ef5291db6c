(* Observability tests: histogram bucket geometry and percentile
   accuracy, Metrics error accounting, trace well-formedness (balanced
   begin/end, monotone timestamps, valid JSON), drain-phase coverage,
   Prometheus exposition rendering/parsing, disabled-tracing overhead,
   and the store's dark counters. *)

module Flight = Cdw_obs.Flight
module Histogram = Cdw_obs.Histogram
module Prom = Cdw_obs.Prom
module Telemetry = Cdw_obs.Telemetry
module Trace = Cdw_obs.Trace
module Trace_summary = Cdw_obs.Trace_summary
module Engine = Cdw_engine.Engine
module Metrics = Cdw_engine.Metrics
module Workbench = Cdw_engine.Workbench
module Store = Cdw_store.Store
module Json = Cdw_util.Json
module Splitmix = Cdw_util.Splitmix
module Timing = Cdw_util.Timing

(* ---------------------------------------------------------------- *)
(* Histogram geometry                                                 *)

(* Every float lands in exactly one bucket, and positive finite values
   land in the bucket whose [lo, hi) interval contains them. *)
let prop_bucket_partition =
  Test_helpers.qcheck ~count:500 "bucket_index respects bucket_bounds"
    QCheck2.Gen.float (fun v ->
      let i = Histogram.bucket_index v in
      if i < 0 || i >= Histogram.n_buckets then false
      else
        let lo, hi = Histogram.bucket_bounds i in
        if Float.is_nan v || v <= 0.0 then i = 0
        else if i = 0 then v < hi
        else if i = Histogram.n_buckets - 1 then v >= lo
        else lo <= v && v < hi)

let test_buckets_tile () =
  for i = 0 to Histogram.n_buckets - 2 do
    let _, hi = Histogram.bucket_bounds i in
    let lo, _ = Histogram.bucket_bounds (i + 1) in
    Alcotest.(check (float 0.0))
      (Printf.sprintf "bucket %d/%d boundary" i (i + 1))
      hi lo
  done;
  let lo0, _ = Histogram.bucket_bounds 0 in
  let _, hi_last = Histogram.bucket_bounds (Histogram.n_buckets - 1) in
  Alcotest.(check bool) "underflow opens at -inf" true (lo0 = neg_infinity);
  Alcotest.(check bool) "overflow closes at +inf" true (hi_last = infinity)

(* Exact nearest-rank percentile over the recorded stream, for
   comparison. *)
let exact_percentile samples q =
  let sorted = List.sort compare samples in
  let n = List.length sorted in
  let rank = max 1 (int_of_float (ceil (q *. float_of_int n))) in
  List.nth sorted (rank - 1)

(* The histogram estimate must sit within one log-linear bucket width
   (relative error 1/sub_buckets) of the exact order statistic, at any
   quantile, for value streams spanning many orders of magnitude. *)
let prop_percentile_accuracy =
  Test_helpers.qcheck ~count:100 "percentile within one bucket width"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Splitmix.create seed in
      let n = 50 + Splitmix.int rng 500 in
      let samples =
        List.init n (fun _ ->
            (* log-uniform over ~9 decades *)
            Float.exp (Splitmix.float rng 20.0 -. 10.0))
      in
      let h = Histogram.create () in
      List.iter (Histogram.record h) samples;
      let tol = (1.0 /. float_of_int Histogram.sub_buckets) +. 1e-9 in
      List.for_all
        (fun q ->
          let exact = exact_percentile samples q in
          let est = Histogram.percentile h q in
          Float.abs (est -. exact) <= (tol *. exact) +. 1e-12)
        [ 0.5; 0.9; 0.99; 0.999 ])

let test_histogram_aggregates () =
  let h = Histogram.create () in
  Alcotest.(check int) "empty count" 0 (Histogram.count h);
  Alcotest.(check bool) "empty percentile is nan" true
    (Float.is_nan (Histogram.percentile h 0.5));
  List.iter (Histogram.record h) [ 1.0; 2.0; 4.0; 8.0 ];
  Alcotest.(check int) "count" 4 (Histogram.count h);
  Alcotest.(check (float 1e-9)) "sum" 15.0 (Histogram.sum h);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Histogram.min_value h);
  Alcotest.(check (float 1e-9)) "max" 8.0 (Histogram.max_value h);
  let other = Histogram.create () in
  Histogram.record other 16.0;
  Histogram.merge_into ~into:h other;
  Alcotest.(check int) "merged count" 5 (Histogram.count h);
  Alcotest.(check (float 1e-9)) "merged max" 16.0 (Histogram.max_value h)

(* ---------------------------------------------------------------- *)
(* Metrics: error accounting and percentile export                    *)

exception Boom

let test_time_records_errors () =
  let m = Metrics.create () in
  (match Metrics.time m "risky" (fun () -> raise Boom) with
  | () -> Alcotest.fail "exception swallowed"
  | exception Boom -> ());
  Alcotest.(check int) "error counter" 1 (Metrics.counter m "risky.error");
  (match Metrics.summary m "risky" with
  | Some s ->
      Alcotest.(check int) "duration recorded" 1 s.Cdw_util.Stats.n
  | None -> Alcotest.fail "no latency recorded for failing thunk");
  ignore (Metrics.time m "fine" (fun () -> 7));
  Alcotest.(check int) "no error counter on success" 0
    (Metrics.counter m "fine.error")

let test_metrics_percentiles () =
  let m = Metrics.create () in
  for i = 1 to 1000 do
    Metrics.record_ms m "lat" (float_of_int i)
  done;
  (match Metrics.percentile m "lat" 0.5 with
  | Some p ->
      Alcotest.(check bool)
        (Printf.sprintf "p50 near 500 (got %f)" p)
        true
        (Float.abs (p -. 500.0) <= 500.0 /. 16.0)
  | None -> Alcotest.fail "no percentile");
  Alcotest.(check bool) "absent key" true
    (Metrics.percentile m "nope" 0.5 = None);
  Alcotest.(check bool) "buckets non-empty" true
    (Metrics.histogram_buckets m "lat" <> []);
  (* summaries export the histogram percentiles *)
  let json = Metrics.to_json m in
  let lat =
    Option.get (Json.member "lat" (Option.get (Json.member "latency_ms" json)))
  in
  Alcotest.(check bool) "p999 exported" true (Json.member "p999" lat <> None)

(* ---------------------------------------------------------------- *)
(* Trace well-formedness and drain coverage                           *)

let json_field ev key conv = Option.get (Option.bind (Json.member key ev) conv)

(* One traced bench run: asserts every structural invariant (valid
   JSON, monotone timestamps, balanced spans) and returns the drain
   coverage, which is the only load-sensitive number. *)
let trace_wellformed_attempt () =
  Trace.reset ();
  Trace.set_enabled true;
  let result =
    Fun.protect
      ~finally:(fun () -> Trace.set_enabled false)
      (fun () -> Workbench.run ~trials:1 Workbench.quick)
  in
  Alcotest.(check bool) "bench ran" true (result.Workbench.n_requests > 0);
  (* Round-trip through text: the export must be valid JSON. *)
  let text = Json.to_string (Trace.export ()) in
  let json =
    match Json.parse text with
    | Ok j -> j
    | Error e -> Alcotest.fail ("trace does not parse: " ^ e)
  in
  let events =
    Option.get (Option.bind (Json.member "traceEvents" json) Json.to_list)
  in
  Alcotest.(check bool) "events recorded" true (List.length events > 0);
  let stacks : (int, string list ref) Hashtbl.t = Hashtbl.create 8 in
  let last_ts : (int, float) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun ev ->
      match json_field ev "ph" Json.to_text with
      | "M" -> ()
      | ("B" | "E") as ph ->
          let tid = int_of_float (json_field ev "tid" Json.to_float) in
          let ts = json_field ev "ts" Json.to_float in
          let name = json_field ev "name" Json.to_text in
          let prev =
            Option.value ~default:neg_infinity (Hashtbl.find_opt last_ts tid)
          in
          if ts < prev then
            Alcotest.failf "timestamps not monotone on tid %d: %f < %f" tid ts
              prev;
          Hashtbl.replace last_ts tid ts;
          let stack =
            match Hashtbl.find_opt stacks tid with
            | Some s -> s
            | None ->
                let s = ref [] in
                Hashtbl.add stacks tid s;
                s
          in
          if ph = "B" then begin
            (* begin events carry the span id *)
            let args = Option.get (Json.member "args" ev) in
            ignore (json_field args "id" Json.to_text);
            stack := name :: !stack
          end
          else begin
            match !stack with
            | top :: rest ->
                Alcotest.(check string) "end matches innermost begin" top name;
                stack := rest
            | [] -> Alcotest.failf "end %S without begin on tid %d" name tid
          end
      | ph -> Alcotest.failf "unexpected phase %S" ph)
    events;
  Hashtbl.iter
    (fun tid s ->
      if !s <> [] then
        Alcotest.failf "tid %d left %d spans open" tid (List.length !s))
    stacks;
  (* The accounting invariant behind `cdw trace summarize': the named
     drain phases must explain at least 90% of the drain wall time. *)
  let report =
    match Trace_summary.of_json json with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check int) "no unbalanced spans" 0 report.Trace_summary.unbalanced;
  Alcotest.(check bool) "drain span present" true
    (report.Trace_summary.drain_wall_ms > 0.0);
  let coverage = Trace_summary.coverage report in
  Trace.reset ();
  coverage

(* Coverage measures how much of the drain wall time the named phases
   explain. The quick-config drain is sub-millisecond, so on a busy
   (or single-core) host one unlucky scheduler preemption between
   spans sinks the ratio — retry a few times and require the invariant
   to hold on at least one quiet run. *)
let test_trace_wellformed () =
  let attempts = 5 in
  let rec go n best =
    let coverage = trace_wellformed_attempt () in
    let best = Float.max best coverage in
    if best >= 0.9 then ()
    else if n + 1 < attempts then go (n + 1) best
    else
      Alcotest.failf "drain coverage %.3f < 0.9 after %d attempts" best
        attempts
  in
  go 0 0.0

let test_trace_disabled_overhead () =
  Trace.reset ();
  Alcotest.(check bool) "tracing off" false (Trace.enabled ());
  let n = 1_000_000 in
  let (), ms =
    Timing.time_f (fun () ->
        for _ = 1 to n do
          Trace.span "noop" (fun () -> ())
        done)
  in
  (* One atomic load and a branch per call: even a loaded CI machine
     does a million in well under half a second. *)
  Alcotest.(check bool)
    (Printf.sprintf "1M disabled spans in %.1f ms < 500 ms" ms)
    true (ms < 500.0);
  Alcotest.(check int) "nothing recorded while off" 0 (Trace.recorded_events ())

let test_trace_exceptions_balanced () =
  Trace.reset ();
  Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Trace.set_enabled false)
    (fun () ->
      (match Trace.span "outer" (fun () -> raise Boom) with
      | () -> Alcotest.fail "exception swallowed"
      | exception Boom -> ());
      Alcotest.(check int) "begin and end recorded" 2
        (Trace.recorded_events ()));
  Trace.reset ()

(* ---------------------------------------------------------------- *)
(* Prometheus exposition                                              *)

let test_prom_render_golden () =
  (* Counters render deterministically: a fixed registry must match the
     exposition byte for byte. *)
  let got =
    Prom.render
      ~counters:[ ("requests", 42); ("solve.error", 1) ]
      ~histograms:[] ()
  in
  let want =
    "# TYPE cdw_requests counter\n\
     cdw_requests 42\n\
     # TYPE cdw_solve_error counter\n\
     cdw_solve_error 1\n"
  in
  Alcotest.(check string) "counter exposition" want got

let test_prom_roundtrip () =
  let m = Metrics.create () in
  Metrics.incr ~by:3 m "submitted";
  Metrics.incr m "weird name/with=chars";
  for i = 1 to 100 do
    Metrics.record_ms m "solve" (0.1 *. float_of_int i)
  done;
  let text = Metrics.prometheus m in
  let samples =
    match Prom.parse text with
    | Ok s -> s
    | Error e -> Alcotest.fail ("exposition does not parse: " ^ e)
  in
  let find name =
    List.filter (fun s -> s.Prom.metric = name) samples
  in
  (match find "cdw_submitted" with
  | [ s ] -> Alcotest.(check (float 0.0)) "counter value" 3.0 s.Prom.value
  | _ -> Alcotest.fail "cdw_submitted missing");
  Alcotest.(check bool) "sanitized name present" true
    (find "cdw_weird_name_with_chars" <> []);
  (match find "cdw_solve_ms_count" with
  | [ s ] -> Alcotest.(check (float 0.0)) "histogram count" 100.0 s.Prom.value
  | _ -> Alcotest.fail "cdw_solve_ms_count missing");
  (match find "cdw_solve_ms_sum" with
  | [ s ] ->
      Alcotest.(check bool) "histogram sum" true
        (Float.abs (s.Prom.value -. 505.0) < 1e-6)
  | _ -> Alcotest.fail "cdw_solve_ms_sum missing");
  (* cumulative buckets: counts never decrease and end at +Inf = count *)
  let buckets = find "cdw_solve_ms_bucket" in
  Alcotest.(check bool) "several buckets" true (List.length buckets > 2);
  let counts = List.map (fun s -> s.Prom.value) buckets in
  Alcotest.(check bool) "cumulative monotone" true
    (List.for_all2 ( <= ) counts (List.tl counts @ [ infinity ]));
  (match List.rev buckets with
  | last :: _ ->
      Alcotest.(check (list string)) "last bucket is +Inf" [ "+Inf" ]
        (List.map snd last.Prom.labels);
      Alcotest.(check (float 0.0)) "last bucket holds all" 100.0
        last.Prom.value
  | [] -> Alcotest.fail "no buckets")

let test_prom_parse_rejects_garbage () =
  match Prom.parse "cdw_ok 1\nthis is not a sample\n" with
  | Ok _ -> Alcotest.fail "accepted malformed line"
  | Error msg ->
      Alcotest.(check bool) "error mentions a line" true
        (String.length msg > 0)

(* ---------------------------------------------------------------- *)
(* Telemetry emitter                                                  *)

let test_telemetry_emits_and_stops () =
  let fires = Atomic.make 0 in
  let t = Telemetry.start ~interval_s:0.05 (fun () -> Atomic.incr fires) in
  Unix.sleepf 0.18;
  Telemetry.stop t;
  let n = Atomic.get fires in
  Alcotest.(check bool)
    (Printf.sprintf "fired %d times (>= 2)" n)
    true (n >= 2);
  Telemetry.stop t (* idempotent *)

let test_telemetry_survives_exceptions () =
  let fires = Atomic.make 0 in
  let t =
    Telemetry.start ~interval_s:0.05 (fun () ->
        Atomic.incr fires;
        failwith "disk full")
  in
  Unix.sleepf 0.12;
  Telemetry.stop t;
  Alcotest.(check bool) "kept firing" true (Atomic.get fires >= 2);
  Alcotest.(check int) "errors counted" (Atomic.get fires) (Telemetry.errors t)

(* The regression this pins: a run shorter than the emit interval must
   still leave one sample behind — [stop] flushes a final one after
   joining the emitter. Before that flush existed, a quick bench with
   --stats-out produced an empty file. *)
let test_telemetry_final_flush_on_stop () =
  let fires = Atomic.make 0 in
  let t = Telemetry.start ~interval_s:10.0 (fun () -> Atomic.incr fires) in
  Telemetry.stop t;
  Alcotest.(check bool) "stop flushed a final sample" true
    (Atomic.get fires >= 1)

(* ---------------------------------------------------------------- *)
(* Flight recorder                                                    *)

let test_flight_record_and_export () =
  let before = Flight.recorded () in
  Flight.record ~shard:0 "flight.test" ~t0_us:1_000.0 ~dur_us:250.0;
  let v = Flight.time "flight.test.timed" (fun () -> 42) in
  Alcotest.(check int) "time passes the value through" 42 v;
  Alcotest.(check bool) "entries recorded" true
    (Flight.recorded () >= before + 2);
  Flight.set_context
    (Some (fun () -> Json.Object [ ("answer", Json.Number 42.0) ]));
  let json =
    Fun.protect
      ~finally:(fun () -> Flight.set_context None)
      (fun () -> Flight.export ())
  in
  (* The dump is a trace-event document the summarizer aggregates. *)
  (match Trace_summary.of_json json with
  | Error e -> Alcotest.fail e
  | Ok r ->
      Alcotest.(check bool) "X events aggregated" true
        (r.Trace_summary.events > 0);
      Alcotest.(check bool) "flight.test row present" true
        (List.exists
           (fun row -> row.Trace_summary.name = "flight.test")
           r.Trace_summary.rows));
  (* The context thunk's snapshot rides under "flight". *)
  let flight = Option.get (Json.member "flight" json) in
  Alcotest.(check bool) "context captured" true
    (Option.bind (Json.member "context" flight) (Json.member "answer")
    <> None)

let test_flight_ring_is_bounded () =
  let n = 5_000 in
  let before = Flight.recorded () in
  for i = 1 to n do
    Flight.record "flight.wrap" ~t0_us:(float_of_int i) ~dur_us:1.0
  done;
  Alcotest.(check int) "every record counted" (before + n)
    (Flight.recorded ());
  let json = Flight.export () in
  let events =
    Option.get (Option.bind (Json.member "traceEvents" json) Json.to_list)
  in
  let wraps =
    List.length
      (List.filter
         (fun e ->
           Option.bind (Json.member "name" e) Json.to_text
           = Some "flight.wrap")
         events)
  in
  Alcotest.(check bool)
    (Printf.sprintf "ring bounded: %d live entries out of %d recorded" wraps n)
    true
    (wraps >= 1 && wraps < n)

(* ---------------------------------------------------------------- *)
(* Prometheus histogram conformance lint                              *)

let test_prom_lint_real_exposition () =
  let m = Metrics.create () in
  Metrics.incr ~by:7 m "reqs";
  for i = 1 to 50 do
    Metrics.record_ms m "lat" (float_of_int i)
  done;
  let samples =
    match Prom.parse (Metrics.prometheus m) with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  match Prom.lint samples with
  | Ok l ->
      Alcotest.(check bool) "histogram family seen" true
        (l.Prom.l_histograms >= 1);
      Alcotest.(check bool) "samples counted" true (l.Prom.l_samples > 0)
  | Error e -> Alcotest.failf "our own exposition fails the lint: %s" e

let test_prom_lint_rejects_defects () =
  let b le v =
    { Prom.metric = "cdw_x_ms_bucket"; labels = [ ("le", le) ]; value = v }
  in
  let count v = { Prom.metric = "cdw_x_ms_count"; labels = []; value = v } in
  let sum v = { Prom.metric = "cdw_x_ms_sum"; labels = []; value = v } in
  let ok = [ b "1" 1.0; b "+Inf" 3.0; count 3.0; sum 4.2 ] in
  (match Prom.lint ok with
  | Ok l -> Alcotest.(check int) "conformant family" 1 l.Prom.l_histograms
  | Error e -> Alcotest.failf "conformant family rejected: %s" e);
  let expect_error what samples =
    match Prom.lint samples with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s passed the lint" what
  in
  expect_error "missing +Inf" [ b "1" 1.0; b "2" 3.0; count 3.0; sum 4.2 ];
  expect_error "non-cumulative buckets"
    [ b "1" 5.0; b "2" 3.0; b "+Inf" 5.0; count 5.0; sum 4.2 ];
  expect_error "count mismatch" [ b "1" 1.0; b "+Inf" 3.0; count 2.0; sum 4.2 ];
  expect_error "missing _sum" [ b "1" 1.0; b "+Inf" 3.0; count 3.0 ];
  expect_error "unparseable le"
    [ b "fast" 1.0; b "+Inf" 3.0; count 3.0; sum 4.2 ]

(* ---------------------------------------------------------------- *)
(* Scaling report over a multi-shard trace                            *)

(* One traced 2-shard drain; returns the scaling rows (live trace) and
   asserts the flight recorder saw the same drain. Retried by the
   caller: the quick drain is sub-millisecond, so one scheduler
   preemption between spans can sink a coverage ratio. *)
let scaling_attempt () =
  let module Serving = Cdw_shard.Serving in
  let wf, script = Workbench.workload Workbench.quick in
  let serving =
    Serving.create ~algorithm:Workbench.quick.Workbench.algorithm
      ~seed:Workbench.quick.Workbench.seed ~shards:2 wf
  in
  (* Warm-up drain first: it forces the pinned-domain spawn (and its
     prewarm of the flight ring and trace buffer) before the traced
     window, so the report describes steady-state drains rather than
     startup. *)
  (match script with
  | (u, r) :: _ -> Serving.submit serving ~user:u r
  | [] -> ());
  ignore (Serving.drain serving);
  List.iter (fun (u, r) -> Serving.submit serving ~user:u r) script;
  Trace.reset ();
  Trace.set_enabled true;
  let export =
    Fun.protect
      ~finally:(fun () -> Trace.set_enabled false)
      (fun () ->
        ignore (Serving.drain serving);
        Trace.set_enabled false;
        Trace.export ())
  in
  Serving.close serving;
  Trace.reset ();
  let live =
    match Trace_summary.scaling_of_json export with
    | Ok s -> s
    | Error e -> Alcotest.fail ("live trace scaling: " ^ e)
  in
  (* The flight recorder ran through the same drain (always on): its
     dump must yield a scaling report too. *)
  (match Trace_summary.scaling_of_json (Flight.export ()) with
  | Ok s ->
      Alcotest.(check bool) "flight dump has group drains" true
        (s.Trace_summary.sc_drains >= 1)
  | Error e -> Alcotest.fail ("flight dump scaling: " ^ e));
  live

let test_scaling_report () =
  let attempts = 5 in
  let rec go n =
    let s = scaling_attempt () in
    Alcotest.(check int) "one group drain" 1 s.Trace_summary.sc_drains;
    Alcotest.(check (list int)) "both shards reported" [ 0; 1 ]
      (List.map
         (fun r -> r.Trace_summary.sh_shard)
         s.Trace_summary.sc_shards);
    List.iter
      (fun r ->
        Alcotest.(check bool)
          (Printf.sprintf "shard %d drained" r.Trace_summary.sh_shard)
          true
          (r.Trace_summary.sh_drains >= 1
          && r.Trace_summary.sh_drain_ms > 0.0))
      s.Trace_summary.sc_shards;
    let worst =
      List.fold_left
        (fun acc r -> Float.min acc r.Trace_summary.sh_coverage)
        1.0 s.Trace_summary.sc_shards
    in
    if worst >= 0.9 then ()
    else if n + 1 < attempts then go (n + 1)
    else
      Alcotest.failf "phase coverage %.3f < 0.9 after %d attempts" worst
        attempts
  in
  go 0;
  (* A single-engine trace has no group drains: the scaling report must
     say so instead of fabricating rows. *)
  match Trace_summary.scaling_of_json (Json.Object [ ("traceEvents", Json.Array []) ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "scaling report out of an empty trace"

(* ---------------------------------------------------------------- *)
(* Store dark counters                                                *)

let with_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "cdw_obs_%d" (Unix.getpid ()))
  in
  if Sys.file_exists dir then
    Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir)
  else Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun n -> Sys.remove (Filename.concat dir n))
        (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let test_store_counters () =
  with_dir (fun dir ->
      let config = Workbench.quick in
      let wf, script = Workbench.workload config in
      let engine =
        Engine.create ~algorithm:config.Workbench.algorithm
          ~seed:config.Workbench.seed wf
      in
      let store = Store.create_for ~dir engine in
      List.iter (fun (user, request) -> Engine.submit engine ~user request) script;
      ignore (Engine.drain engine);
      Store.close store;
      let m = Engine.metrics engine in
      Alcotest.(check bool) "wal appends counted" true
        (Metrics.counter m "store.wal.appends" > 0);
      Alcotest.(check bool) "wal bytes counted" true
        (Metrics.counter m "store.wal.appended_bytes"
        > Metrics.counter m "store.wal.appends");
      (* queue wait is measured for every drained request *)
      (match Metrics.summary m "queue_wait" with
      | Some s -> Alcotest.(check bool) "queue_wait samples" true (s.Cdw_util.Stats.n > 0)
      | None -> Alcotest.fail "queue_wait latency missing");
      (* a recovery of that ledger reports what it scanned *)
      match Store.recover dir with
      | Error e -> Alcotest.fail e
      | Ok r ->
          let rm = Engine.metrics r.Store.engine in
          Alcotest.(check bool) "recovered frames counted" true
            (Metrics.counter rm "store.recover.frames" > 0);
          Alcotest.(check int) "clean tail classified" 1
            (Metrics.counter rm "store.recover.tail.clean"))

let suite =
  [
    Alcotest.test_case "histogram: buckets tile" `Quick test_buckets_tile;
    prop_bucket_partition;
    prop_percentile_accuracy;
    Alcotest.test_case "histogram: aggregates and merge" `Quick
      test_histogram_aggregates;
    Alcotest.test_case "metrics: time records errors" `Quick
      test_time_records_errors;
    Alcotest.test_case "metrics: histogram percentiles" `Quick
      test_metrics_percentiles;
    Alcotest.test_case "trace: well-formed export, drain coverage" `Quick
      test_trace_wellformed;
    Alcotest.test_case "trace: disabled spans are near-free" `Quick
      test_trace_disabled_overhead;
    Alcotest.test_case "trace: exceptions keep spans balanced" `Quick
      test_trace_exceptions_balanced;
    Alcotest.test_case "prom: counter exposition golden" `Quick
      test_prom_render_golden;
    Alcotest.test_case "prom: render/parse round-trip" `Quick
      test_prom_roundtrip;
    Alcotest.test_case "prom: parser rejects garbage" `Quick
      test_prom_parse_rejects_garbage;
    Alcotest.test_case "telemetry: emits and stops" `Quick
      test_telemetry_emits_and_stops;
    Alcotest.test_case "telemetry: callback exceptions counted" `Quick
      test_telemetry_survives_exceptions;
    Alcotest.test_case "telemetry: stop flushes a final sample" `Quick
      test_telemetry_final_flush_on_stop;
    Alcotest.test_case "flight: record, export, summarize" `Quick
      test_flight_record_and_export;
    Alcotest.test_case "flight: ring stays bounded" `Quick
      test_flight_ring_is_bounded;
    Alcotest.test_case "prom lint: our exposition conforms" `Quick
      test_prom_lint_real_exposition;
    Alcotest.test_case "prom lint: defects rejected" `Quick
      test_prom_lint_rejects_defects;
    Alcotest.test_case "scaling report: 2-shard drain attribution" `Quick
      test_scaling_report;
    Alcotest.test_case "store: dark counters reach engine metrics" `Quick
      test_store_counters;
  ]
