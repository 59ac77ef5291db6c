(* The benchmark's workloads and the inputs each one is driven with.
   Everything here is a function of the workload and the seed: the
   benchmark generates it all before any timing starts, and the system
   under test only ever sees the generated workflow and request
   stream. Each workload loads a different layer; BENCHMARK.json and
   README.md say which and why. *)

module Algorithms = Cdw_core.Algorithms
module Engine = Cdw_engine.Engine
module Evolve = Cdw_workload.Evolve
module Traffic = Cdw_workload.Traffic
module Workflow = Cdw_core.Workflow

type t = {
  name : string;
  shape : Sut.shape;
  density : float;  (** of the 100-vertex, k = 5 base workflow *)
  users : int;  (** stable (Zipf) population of the stream *)
  rate_rps : float;
      (** the stream's Poisson arrival rate: the paced phase's offered
          load, and (per 50 ms window) the saturated phase's batch
          size *)
  saturated_rps : float;
      (** saturated capacity measured on the reference host; sizes the
          saturated phase's runs to about half the run length together *)
  evolve_every_ms : float option;
      (** an evolve step (drop 1, add 2, reprice 2 edges) every this
          many ms of stream time *)
  pinned_digest : string;
      (** {!Checks.digest} of the saturated phase's final state at seed
          42 and the default run length ([BENCHMARK.json]
          [run_seconds]) *)
}

(* The run length the pinned digests hold for (BENCHMARK.json
   run_seconds): the saturated phase's size scales with it. *)
let pinned_seconds = 20.0

let shape ?mem_cap_sessions ?(shards = 1) ?(wire = false) ?journal algorithm =
  { Sut.algorithm; shards; mem_cap_sessions; wire; journal }

let all =
  [
    (* Work in the drain, the cold tier (hydrate/evict) and the path cache,
       almost none in the solver. Paced, most drains hold one request and
       show the drain's fixed cost; the few that hold two or more pay for
       fanning out to a second domain, which sets the tail. *)
    {
      name = "zipf-cold";
      shape = shape ~mem_cap_sessions:4096 Algorithms.Remove_first_edge;
      density = 0.0;
      users = 1_000_000;
      rate_rps = 5_000.0;
      saturated_rps = 100_000.0;
      evolve_every_ms = None;
      pinned_digest = "0c502dc7b9eaf68c9455e3f8b9921014";
    };
    (* Work in the solver stack (paths, weights, multicut, enforce). At
       d = 0.3 a run is a few hundred heavy-tailed hitting-set solves; at
       d = 0.2 a solve's p99 is a hundred times its median, and whether
       half the paced requests queue behind one flips from seed to seed.
       d = 0.15 keeps the hitting set the largest cost. *)
    {
      name = "minmc-dense";
      shape = shape Algorithms.Remove_min_mc;
      density = 0.15;
      users = 2_000;
      rate_rps = 1_500.0;
      saturated_rps = 18_000.0;
      evolve_every_ms = None;
      pinned_digest = "4a31b0530ddcdd03878330d2f06f5ca7";
    };
    (* Work in the wire codec, socket syscalls, the MPSC inboxes, the shard
       barrier and the WAL; the recovery drill replays that WAL. *)
    {
      name = "wire-journaled";
      shape =
        shape ~shards:2 ~wire:true ~journal:(Cdw_store.Wal.Every 32)
          Algorithms.Remove_first_edge;
      density = 0.0;
      users = 100_000;
      rate_rps = 6_000.0;
      saturated_rps = 45_000.0;
      evolve_every_ms = None;
      pinned_digest = "f35acd3a8d0eeb90dfe6ac809d8315d0";
    };
    (* The only workload that migrates: Engine.migrate and the index
       install, once per second of stream time. *)
    {
      name = "evolve-live";
      shape = shape Algorithms.Remove_min_mc;
      density = 0.0;
      users = 20_000;
      rate_rps = 5_000.0;
      saturated_rps = 25_000.0;
      evolve_every_ms = Some 1000.0;
      pinned_digest = "ad9ea34cbc4dda41b89bb0d49746e793";
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

type inputs = {
  workflow : Workflow.t;
  due_ms : float array;  (** stream time of each event, non-decreasing *)
  users : string array;
  requests : Engine.request array;
  epochs : Workflow.t array;
      (** [epochs.(k)] is the base after evolve step [k + 1]; empty for
          workloads that do not evolve *)
}

(* The shared base workflow of a workload, and its chain of evolve steps,
   are part of the workload's definition, not of its random input: every
   seed serves the same bases, and the seed drives the request stream.
   Solver cost differs a lot between generated bases, so per-seed bases
   would spread every timing across seeds for reasons no change to the
   code could move. *)
let base_seed = 42

let workflow w =
  (Cdw_workload.Generator.generate ~seed:base_seed
     {
       Cdw_workload.Gen_params.default with
       Cdw_workload.Gen_params.n_vertices = 100;
       n_constraints = 0;
       stages = 5;
       density = w.density;
     })
    .Cdw_workload.Generator.workflow

(* [events] requests at least, and at least enough to cover [span_ms] of
   stream time, plus one evolve step per [every] ms of it. User names and requests are interned: a stable user's
   name is one shared string and the pool's few hundred pairs give a few
   hundred distinct requests, so a million-event stream costs three
   arrays, not a million small allocations. *)
let generate w ~seed ~users ~events ~span_ms ~every =
  let workflow = workflow w in
  let pairs = Cdw_engine.Workbench.connected_pairs workflow in
  let spec =
    {
      Traffic.default with
      Traffic.users;
      arrival = Traffic.Poisson w.rate_rps;
      requests = max_int;
      seed;
    }
  in
  let gen = Traffic.create spec ~pairs in
  let names = Hashtbl.create 4096 and reqs = Hashtbl.create 1024 in
  let intern tbl key v =
    match Hashtbl.find_opt tbl key with
    | Some v -> v
    | None ->
        Hashtbl.add tbl key v;
        v
  in
  let request = function
    | Traffic.Install ps -> Engine.Add ps
    | Traffic.Withdraw ps -> Engine.Withdraw ps
    (* A query is a read-only touch: the engine's free empty add, which
       still routes through (and hydrates) the user's session. *)
    | Traffic.Query -> Engine.Add []
  in
  (* Sized up front from the arrival rate, so a run allocates its stream
     once instead of through repeated doubling. *)
  let cap =
    max events (int_of_float (span_ms *. w.rate_rps /. 1000.0 *. 1.05)) + 64
  in
  let due = ref (Array.make cap 0.0) and us = ref (Array.make cap "")
  and rs = ref (Array.make cap (Engine.Add [])) in
  let grow a fill =
    let b = Array.make (2 * Array.length a) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  let rec fill n =
    if n < events || n = 0 || !due.(n - 1) < span_ms then
      match Traffic.next gen with
      | None -> n
      | Some { Traffic.at_ms; user; op } ->
          if n = Array.length !due then begin
            due := grow !due 0.0;
            us := grow !us "";
            rs := grow !rs (Engine.Add [])
          end;
          !due.(n) <- at_ms;
          !us.(n) <- intern names user user;
          !rs.(n) <- intern reqs op (request op);
          fill (n + 1)
    else n
  in
  let n = fill 0 in
  let due_ms = Array.sub !due 0 n in
  let epochs =
    match every with
    | None -> [||]
    | Some every ->
        let last = Float.max span_ms due_ms.(Array.length due_ms - 1) in
        let steps = int_of_float (last /. every) + 1 in
        let base = ref workflow in
        Array.init steps (fun k ->
            let step =
              { Evolve.default_step with Evolve.seed = base_seed + k + 1 }
            in
            base := Evolve.mutate step !base;
            !base)
  in
  { workflow; due_ms; users = Array.sub !us 0 n; requests = Array.sub !rs 0 n; epochs }
