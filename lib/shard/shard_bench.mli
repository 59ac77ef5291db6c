(** Serving benchmark over any {!Serving.t} shape, plus the
    shard-scaling sweep.

    The workload (workflow + script) is byte-identical to the
    single-engine benchmark's — {!Cdw_engine.Workbench.workload} of
    the same config — so a run through any serving shape is directly
    comparable to the unsharded [engine_ms] of [BENCH_engine.json],
    and rows are comparable to each other. Sharded scaling comes from
    draining shards on their pinned domains; on a single-core host the
    rows collapse to ≈1× and that honest number is what gets
    recorded. *)

type run = {
  shards : int;  (** {!Serving.shards} of the value that served *)
  n_requests : int;
  ms : float;  (** best-of-trials wall time: create + submit + drain *)
  rps : float;  (** requests per second at [ms] *)
}

val serve :
  ?trials:int ->
  ?attach:(Serving.t -> unit) ->
  make:(Cdw_core.Workflow.t -> Serving.t) ->
  Cdw_engine.Workbench.config ->
  run * Serving.t
(** Serve the config's workload through a fresh [make wf] per trial
    (default 3 trials) and report the best wall time; the returned
    serving value is the best trial's, post-drain (for metrics /
    exposition / snapshotting) — callers own its {!Serving.close}.
    [attach] runs on each fresh value before any submit — the hook
    [cdw serve-bench --journal] uses to wire ledgers onto the value
    under test (journaled runs should use [~trials:1]: each trial
    re-creates the ledger directory). Losing trials' values are closed
    as they lose. Raises [Invalid_argument] if any reply is an error
    or [trials < 1]. *)

val serve_group :
  ?trials:int ->
  ?attach:(Serving.t -> unit) ->
  shards:int ->
  Cdw_engine.Workbench.config ->
  run * Serving.t
(** {!serve} with [make] fixed to an [N]-shard {!Serving.create} on the
    config's algorithm and seed. *)

(** {1 Open-loop traffic serving} *)

type traffic_run = {
  t_shards : int;
  t_requests : int;  (** events the stream emitted *)
  t_users : int;  (** distinct users (stable + churn) touched *)
  t_errors : int;  (** error replies (0 — traffic is valid by construction) *)
  t_ms : float;  (** wall time of the whole pump: submit + drains *)
  t_rps : float;  (** sustained requests per second *)
  t_p999_ms : float;  (** p999 of per-request service time *)
  t_drains : int;
  t_epochs : int;  (** [evolve] steps that fired (base migrations) *)
  t_tier : Cdw_engine.Tier.stats option;  (** when run under a memory cap *)
  t_refine : Cdw_engine.Engine.refine_stats option;
      (** when run with [refine] — the anytime refiner's counters *)
}

val request_of_op : Cdw_workload.Traffic.op -> Cdw_engine.Engine.request
(** [Install]/[Withdraw] map directly; [Query] is the engine's free
    [Add []] — a session touch that hydrates a parked session exactly
    like a consent lookup would. *)

val serve_traffic :
  ?window_ms:float ->
  ?mem_cap_bytes:int ->
  ?session_bytes:int ->
  ?evolve:Cdw_workload.Evolve.step list ->
  ?refine:bool ->
  Serving.t ->
  Cdw_workload.Traffic.spec ->
  pairs:(int * int) array ->
  traffic_run
(** Pump the spec's whole event stream through the serving value,
    draining at [window_ms] (default 50) boundaries of the stream's
    {e synthetic} timestamps — the drain cadence is a function of the
    stream alone, so runs are reproducible whatever the host's speed.
    [mem_cap_bytes] turns on session tiering ({!Serving.set_mem_cap})
    before the first submit. [evolve] is a mutation schedule on the
    same synthetic clock: each step fires at the first drain boundary
    at or past its [at_ms] — {!Cdw_workload.Evolve.mutate} of the
    current base, installed live via {!Serving.migrate}; steps left
    when the stream ends fire at the final drain, so the run always
    lands on the schedule's last epoch. [refine] (default off) turns
    the anytime refiner on ({!Serving.set_refine} with defaults, unless
    the caller pre-configured it) and steps it between windows — up to
    4 background solves per boundary, playing the production idle loop;
    after the stream ends the queue is flushed and one extra drain
    installs the last staged improvements. The caller owns the serving
    value (creation is not timed, nor is {!Serving.close}). *)

val traffic_run_json : traffic_run -> Cdw_util.Json.t
(** The [BENCH_engine.json] ["tiered"] payload core: request/user
    counts, wall time, sustained rps, p999, plus the tier counters
    ([mem_cap_bytes], [session_bytes], [sessions_resident_peak],
    [resident_bytes_peak], [hydrations], [evictions]) when capped. *)

val pp_traffic : Format.formatter -> traffic_run -> unit

type row = {
  r_shards : int;
  r_ms : float;
  r_rps : float;
  r_speedup : float;  (** vs the first row (shard count 1) *)
}

val scaling :
  ?trials:int -> ?shard_counts:int list -> Cdw_engine.Workbench.config ->
  row list
(** One {!serve_group} per shard count (default [[1; 2; 4]]), values
    closed after timing; [r_speedup] is each row's wall time relative
    to the first row's. *)

val scaling_json : row list -> Cdw_util.Json.t
(** The [BENCH_engine.json] ["shard_scaling"] payload: an array of
    [{ "shards", "engine_ms", "engine_rps", "speedup_vs_one" }]. *)

val pp_scaling : Format.formatter -> row list -> unit
