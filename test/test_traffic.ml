(* The traffic generator's contract: Zipf(s) skew that matches theory
   (property-tested against the closed-form mass over a million draws),
   O(1) rejection cost per draw, seed-determinism, spec round-trips,
   monotone arrival clocks for both processes, churn users that appear
   exactly once — and streams that are valid by construction when
   served by a real engine. *)

open Cdw_core
module Engine = Cdw_engine.Engine
module Gen_params = Cdw_workload.Gen_params
module Generator = Cdw_workload.Generator
module Splitmix = Cdw_util.Splitmix
module Traffic = Cdw_workload.Traffic
module Workbench = Cdw_engine.Workbench

(* ---------------------------------------------------------------- *)
(* Zipf sampler                                                       *)

(* Empirical rank frequencies over 1M draws vs the theoretical mass:
   every rank with mass >= 1e-3 (expected count >= 1000, so sampling
   noise is ~3% at 3 sigma) must match within 5% relative. *)
let test_zipf_mass () =
  List.iter
    (fun s ->
      let n = 1000 in
      let draws = 1_000_000 in
      let z = Traffic.Zipf.create ~n ~s in
      let rng = Splitmix.create 0xF00D in
      let counts = Array.make (n + 1) 0 in
      for _ = 1 to draws do
        let k = Traffic.Zipf.draw z rng in
        counts.(k) <- counts.(k) + 1
      done;
      for k = 1 to n do
        let th = Traffic.Zipf.mass z k in
        if th >= 1e-3 then begin
          let emp = float_of_int counts.(k) /. float_of_int draws in
          (* 5% relative plus 5 sigma of binomial sampling noise — a few
             hundred ranks are checked, so the slack must sit far out in
             the tail of each one's sampling distribution. *)
          let slack =
            (0.05 *. th) +. (5.0 *. sqrt (th /. float_of_int draws))
          in
          if abs_float (emp -. th) > slack then
            Alcotest.failf
              "zipf(s=%.1f) rank %d: empirical %.5f vs theoretical %.5f" s k
              emp th
        end
      done;
      (* The masses themselves are a distribution. *)
      let total = ref 0.0 in
      for k = 1 to n do
        total := !total +. Traffic.Zipf.mass z k
      done;
      Alcotest.(check bool)
        (Printf.sprintf "zipf(s=%.1f) masses sum to 1" s)
        true
        (abs_float (!total -. 1.0) < 1e-9))
    [ 0.8; 1.0; 1.3 ]

(* Bounded rejection: the measured iterations-per-draw ratio stays
   under a small constant at widely different n and s — the falsifiable
   form of "O(1) expected work per draw". *)
let test_zipf_bounded_iterations () =
  List.iter
    (fun (n, s) ->
      let z = Traffic.Zipf.create ~n ~s in
      let rng = Splitmix.create 0xCAFE in
      for _ = 1 to 100_000 do
        ignore (Traffic.Zipf.draw z rng)
      done;
      let ratio =
        float_of_int (Traffic.Zipf.iterations z)
        /. float_of_int (Traffic.Zipf.draws z)
      in
      if ratio > 3.0 then
        Alcotest.failf "zipf(n=%d, s=%.2f): %.2f iterations per draw" n s
          ratio)
    [ (10, 0.5); (1000, 1.0); (1_000_000, 1.1); (1_000_000, 2.0) ]

let test_zipf_deterministic () =
  let z = Traffic.Zipf.create ~n:5000 ~s:1.1 in
  let seq seed =
    let rng = Splitmix.create seed in
    List.init 1000 (fun _ -> Traffic.Zipf.draw z rng)
  in
  Alcotest.(check (list int)) "same seed, same ranks" (seq 99) (seq 99);
  Alcotest.(check bool)
    "different seeds diverge" true
    (seq 99 <> seq 100)

let test_zipf_range_and_errors () =
  List.iter
    (fun (n, s) ->
      let z = Traffic.Zipf.create ~n ~s in
      let rng = Splitmix.create 7 in
      for _ = 1 to 10_000 do
        let k = Traffic.Zipf.draw z rng in
        if k < 1 || k > n then
          Alcotest.failf "zipf(n=%d, s=%.1f): rank %d out of range" n s k
      done)
    [ (1, 1.0); (2, 0.5); (10, 3.0) ];
  Alcotest.check_raises "n = 0 rejected" (Invalid_argument
    "Traffic.Zipf.create: n must be >= 1") (fun () ->
      ignore (Traffic.Zipf.create ~n:0 ~s:1.0));
  Alcotest.check_raises "s = 0 rejected" (Invalid_argument
    "Traffic.Zipf.create: s must be a finite float > 0") (fun () ->
      ignore (Traffic.Zipf.create ~n:10 ~s:0.0))

(* ---------------------------------------------------------------- *)
(* Spec parsing                                                       *)

let test_spec_round_trip () =
  let d = Traffic.default in
  (match Traffic.spec_of_string (Traffic.spec_to_string d) with
  | Ok s -> Alcotest.(check bool) "default round-trips" true (s = d)
  | Error e -> Alcotest.failf "default spec does not round-trip: %s" e);
  (match Traffic.spec_of_string "zipf:1.3,users:5000,churn:0.1,requests:777"
   with
  | Ok s ->
      Alcotest.(check int) "users" 5000 s.Traffic.users;
      Alcotest.(check int) "requests" 777 s.Traffic.requests;
      Alcotest.(check (float 1e-9)) "zipf" 1.3 s.Traffic.zipf_s;
      Alcotest.(check (float 1e-9)) "churn" 0.1 s.Traffic.churn
  | Error e -> Alcotest.failf "spec parse: %s" e);
  (match Traffic.spec_of_string "mix:3/2/1,burst:20000/100/400" with
  | Ok s -> (
      Alcotest.(check int) "install_w" 3 s.Traffic.install_w;
      Alcotest.(check int) "withdraw_w" 2 s.Traffic.withdraw_w;
      Alcotest.(check int) "query_w" 1 s.Traffic.query_w;
      match s.Traffic.arrival with
      | Traffic.Bursty { on_rps; on_ms; off_ms } ->
          Alcotest.(check (float 1e-9)) "on_rps" 20000.0 on_rps;
          Alcotest.(check (float 1e-9)) "on_ms" 100.0 on_ms;
          Alcotest.(check (float 1e-9)) "off_ms" 400.0 off_ms
      | Traffic.Poisson _ -> Alcotest.fail "burst: parsed as poisson")
  | Error e -> Alcotest.failf "burst spec parse: %s" e);
  List.iter
    (fun bad ->
      match Traffic.spec_of_string bad with
      | Ok _ -> Alcotest.failf "malformed spec %S accepted" bad
      | Error _ -> ())
    [ "nope:1"; "zipf:abc"; "mix:1/2"; "zipf" ];
  (* Range validation lives in [create], not the parser. *)
  List.iter
    (fun bad ->
      match Traffic.spec_of_string bad with
      | Error e -> Alcotest.failf "spec %S failed to parse: %s" bad e
      | Ok spec -> (
          match Traffic.create spec ~pairs:[| (0, 1) |] with
          | exception Invalid_argument _ -> ()
          | _ -> Alcotest.failf "out-of-range spec %S accepted" bad))
    [ "users:-5"; "churn:1.5"; "mix:0/0/0"; "rps:0" ]

(* ---------------------------------------------------------------- *)
(* The event stream                                                   *)

let small_workflow seed =
  (Generator.generate ~seed
     {
       Gen_params.default with
       Gen_params.n_vertices = 40;
       n_constraints = 0;
       stages = 4;
       density = 0.15;
     })
    .Generator.workflow

let small_spec =
  {
    Traffic.default with
    Traffic.users = 200;
    requests = 3000;
    churn = 0.2;
    install_w = 3;
    withdraw_w = 2;
    query_w = 1;
    arrival = Traffic.Poisson 10_000.0;
    seed = 11;
  }

let stream spec pairs =
  let gen = Traffic.create spec ~pairs in
  let rec go acc =
    match Traffic.next gen with
    | None -> List.rev acc
    | Some e -> go (e :: acc)
  in
  (go [], gen)

let test_stream_deterministic_and_monotone () =
  let wf = small_workflow 5 in
  let pairs = Workbench.connected_pairs wf in
  let events, gen = stream small_spec pairs in
  let events', _ = stream small_spec pairs in
  Alcotest.(check bool) "same spec, same stream" true (events = events');
  Alcotest.(check int) "emits exactly spec.requests" small_spec.Traffic.requests
    (Traffic.generated gen);
  let rec monotone last = function
    | [] -> true
    | e :: rest -> e.Traffic.at_ms >= last && monotone e.Traffic.at_ms rest
  in
  Alcotest.(check bool) "arrival clock is monotone" true (monotone 0.0 events);
  Alcotest.(check bool)
    "distinct users tracked" true
    (Traffic.distinct_users gen > 0
    && Traffic.distinct_users gen
       <= List.length (List.sort_uniq compare (List.map (fun e -> e.Traffic.user) events)))

let test_bursty_arrivals () =
  let wf = small_workflow 5 in
  let pairs = Workbench.connected_pairs wf in
  let spec =
    {
      small_spec with
      Traffic.requests = 2000;
      arrival = Traffic.Bursty { on_rps = 20_000.0; on_ms = 50.0; off_ms = 200.0 };
    }
  in
  let events, _ = stream spec pairs in
  let rec monotone last = function
    | [] -> true
    | e :: rest -> e.Traffic.at_ms >= last && monotone e.Traffic.at_ms rest
  in
  Alcotest.(check bool) "bursty clock is monotone" true (monotone 0.0 events);
  (* No event lands inside an off-phase: every timestamp modulo the
     250 ms cycle falls in the first 50 ms. *)
  List.iter
    (fun e ->
      let phase = Float.rem e.Traffic.at_ms 250.0 in
      if phase > 50.0 +. 1e-6 then
        Alcotest.failf "bursty event at %.3f ms lands in the off-phase (%.3f)"
          e.Traffic.at_ms phase)
    events

let test_churn_users_are_one_shot () =
  let wf = small_workflow 5 in
  let pairs = Workbench.connected_pairs wf in
  let events, _ = stream small_spec pairs in
  let churn = Hashtbl.create 64 in
  let total = List.length events in
  let churned = ref 0 in
  List.iter
    (fun e ->
      if String.length e.Traffic.user > 0 && e.Traffic.user.[0] = 'c' then begin
        incr churned;
        (match Hashtbl.find_opt churn e.Traffic.user with
        | Some () -> Alcotest.failf "churn user %s returned" e.Traffic.user
        | None -> Hashtbl.add churn e.Traffic.user ());
        match e.Traffic.op with
        | Traffic.Install _ -> ()
        | _ -> Alcotest.failf "churn user %s did not install" e.Traffic.user
      end)
    events;
  (* 20% churn over 3000 arrivals: a loose 3-sigma band. *)
  let frac = float_of_int !churned /. float_of_int total in
  if frac < 0.15 || frac > 0.25 then
    Alcotest.failf "churn fraction %.3f far from spec 0.2" frac

(* Valid by construction: the whole stream served through a real
   engine, drained in windows, must come back all-Ok — withdrawals only
   ever name accepted pairs, installs only base-connected ones. *)
let test_stream_valid_through_engine () =
  let wf = small_workflow 5 in
  let pairs = Workbench.connected_pairs wf in
  let gen = Traffic.create small_spec ~pairs in
  let engine = Engine.create ~algorithm:Algorithms.Remove_first_edge ~seed:3 wf in
  let served = ref 0 in
  let serve_batch () =
    List.iter
      (fun (r : Engine.reply) ->
        incr served;
        match r.Engine.result with
        | Ok () -> ()
        | Error e -> Alcotest.failf "request for %s rejected: %s" r.Engine.user e)
      (Engine.drain engine)
  in
  let rec pump i =
    match Traffic.next gen with
    | None -> ()
    | Some e ->
        Engine.submit engine ~user:e.Traffic.user
          (match e.Traffic.op with
          | Traffic.Install ps -> Engine.Add ps
          | Traffic.Withdraw ps -> Engine.Withdraw ps
          | Traffic.Query -> Engine.Add []);
        if i mod 200 = 0 then serve_batch ();
        pump (i + 1)
  in
  pump 1;
  serve_batch ();
  Alcotest.(check int) "every event answered" small_spec.Traffic.requests
    !served

let suite =
  [
    ("zipf: empirical mass matches theory (1M draws)", `Slow, test_zipf_mass);
    ("zipf: bounded rejection iterations", `Slow, test_zipf_bounded_iterations);
    ("zipf: seed-deterministic", `Quick, test_zipf_deterministic);
    ("zipf: range and argument errors", `Quick, test_zipf_range_and_errors);
    ("spec: parse round-trips and rejects garbage", `Quick, test_spec_round_trip);
    ("stream: deterministic, monotone, counted", `Quick, test_stream_deterministic_and_monotone);
    ("stream: bursty on/off phases", `Quick, test_bursty_arrivals);
    ("stream: churn users are one-shot installs", `Quick, test_churn_users_are_one_shot);
    ("stream: valid by construction through an engine", `Quick, test_stream_valid_through_engine);
  ]
