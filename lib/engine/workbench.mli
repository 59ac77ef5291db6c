(** The engine-vs-naive serving benchmark behind [cdw serve-bench] and
    [bench/engine.exe].

    The workload models the paper's §8 serving scenario on a dataset-1
    style synthetic workflow: many user sessions, each submitting small
    batches of constraints over time (plus occasional withdrawals),
    against one shared base workflow.

    Two servers answer the identical request script:

    - {b naive}: every request re-solves the user's full accumulated
      constraint set from scratch with {!Cdw_core.Algorithms.solve} on
      the raw workflow — fresh topo order, fresh reachability, fresh
      path enumeration each time, sequentially (what a stateless service
      does today).
    - {b engine}: requests are submitted to an {!Engine.t} and served by
      one batched {!Engine.drain} — shared indexes, incremental
      sessions, coalesced batches. Engine construction (index
      precomputation included) is counted inside the engine time.

    The reported speedup is naive time over engine time; the acceptance
    bar of this benchmark is ≥ 2× on the default 100-vertex /
    50-session configuration. *)

type config = {
  n_vertices : int;
  stages : int;  (** path length k of the generated workflow *)
  density : float;
  n_sessions : int;
  batches_per_session : int;  (** [Add] batches submitted per session *)
  pairs_per_batch : int;
  withdrawals : bool;
      (** submit one [Withdraw] per session after its adds, exercising
          the full-resolve path *)
  seed : int;
  algorithm : Cdw_core.Algorithms.name;
}

val default : config
(** The acceptance workload: 100 vertices, k = 5, 50 sessions, 4×2
    constraint adds plus one withdrawal each, [Remove_first_edge]. *)

val quick : config
(** A seconds-scale smoke version (60 vertices, 12 sessions) for CI. *)

type result = {
  config : config;
  n_requests : int;
  naive_ms : float;
  engine_ms : float;
  speedup : float;  (** [naive_ms /. engine_ms] *)
  naive_rps : float;  (** requests per second *)
  engine_rps : float;
  engine_rps_median : float;
      (** requests per second at the median engine trial's wall time —
          the figure [bench/engine.exe --baseline] gates on *)
  path_cache_hits : int;  (** shared-index path-cache hits during the run *)
  view_session_bytes : int;
      (** marginal resident bytes per session as a copy-free view of the
          frozen base ([Obj.reachable_words], shared blocks counted
          once) *)
  copy_session_bytes : int;
      (** marginal resident bytes per session as a deep workflow copy —
          what every session cost before the frozen/view split *)
  memory_ratio : float;  (** [copy_session_bytes /. view_session_bytes] *)
  metrics : Cdw_util.Json.t;
      (** {!Metrics.to_json} of the engine's registry after the drain *)
}

val connected_pairs : Cdw_core.Workflow.t -> (int * int) array
(** All base-connected (user, purpose) pairs of the workflow — the pool
    every session draws constraints from, and the [pairs] input the
    {!Cdw_workload.Traffic} generator samples. *)

val script_for :
  config -> Cdw_core.Workflow.t -> (string * Engine.request) list
(** The request script of [config] drawn against an {e existing} base
    workflow instead of a generated one — what a [serve-bench
    --connect] client builds after fetching the server's base via the
    wire protocol's [Hello]. [workload config] is exactly
    [(wf, script_for config wf)] on the generated workflow. Raises
    [Invalid_argument] if the workflow has no connected (user,
    purpose) pair. *)

val workload : config -> Cdw_core.Workflow.t * (string * Engine.request) list
(** The benchmark inputs alone: the generated base workflow and the
    deterministic request script (both functions of [config] only) —
    what [Cdw_shard.Shard_bench] serves through a shard group to
    measure scaling on the {e identical} workload. Raises
    [Invalid_argument] if the generated workflow has no connected
    (user, purpose) pair. *)

val run : ?trials:int -> config -> result
(** Runs both servers on the identical script and reports the best of
    [trials] (default 3) wall times for each — both are stateless across
    trials, so the minimum is the measurement least disturbed by the
    rest of the machine — plus the engine's median trial. Raises
    [Invalid_argument] if any engine reply is an error or [trials < 1]. *)

val result_json : result -> Cdw_util.Json.t
(** Everything in {!result} (config included) as one JSON object —
    the payload of [BENCH_engine.json]. *)

val pp : Format.formatter -> result -> unit
(** Human-readable summary table. *)
