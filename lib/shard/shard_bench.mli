(** The serve-bench drivers — a fixed request script and an open-loop
    traffic stream — over any transport, plus the shard-scaling sweep.

    Both drivers pump requests through a {!target}: a serving value in
    this process ({!in_process}) or a remote [cdw serve] over the wire
    ([Cdw_net.Client.bench_target]). Every number is defined the same
    way on both transports: wall time covers submit + drain only
    (per-trial set-up is untimed), and p999 is taken over the replies'
    own [time_ms].

    The script is byte-identical to the single-engine benchmark's —
    {!Cdw_engine.Workbench.script_for} of the same config on the
    target's base — so runs through any serving shape are directly
    comparable to each other and to [BENCH_engine.json]. Sharded
    scaling comes from draining shards on their pinned domains; on a
    single-core host the rows collapse to ≈1× and that honest number is
    what gets recorded. *)

(** {1 Targets} *)

type target = {
  shards : int;  (** shard count of the value that serves *)
  base : Cdw_core.Workflow.t;
      (** the base epoch the workload is drawn against *)
  reset : string list -> unit;
      (** untimed per-trial set-up for these script users: a fresh
          serving value in-process, a [forget] of each over the wire *)
  submit : user:string -> Cdw_engine.Engine.request -> unit;
  drain : unit -> Cdw_engine.Engine.reply list;
      (** drain, returning this target's replies only *)
  install : Cdw_core.Workflow.t -> unit;
      (** install the workflow as the next base epoch, live *)
  serving : unit -> Serving.t option;
      (** the in-process value now serving; [None] over the wire *)
}

val in_process : (unit -> Serving.t) -> target
(** A target over serving values from [make], which is called once now
    and again by each [reset] that follows a submit (the value it
    replaces is closed). The value left serving is the caller's to
    {!Serving.close}. *)

(** {1 Fixed-script serving} *)

type run = {
  shards : int;  (** [shards] of the target that served *)
  n_requests : int;
  ms : float;  (** best-of-trials wall time: submit + drain *)
  rps : float;  (** requests per second at [ms] *)
  p999_ms : float;  (** p999 of the best trial's reply [time_ms] *)
}

val serve : ?trials:int -> target -> Cdw_engine.Workbench.config -> run
(** Serve the config's script, drawn against the target's base, once per
    trial (default 3), each after an untimed [reset] of the script's
    users, and report the best trial. Journaled in-process runs should
    use [~trials:1]: each fresh value re-creates the ledger. Raises
    [Invalid_argument] if any reply is an error or [trials < 1]. *)

val run_json : run -> Cdw_util.Json.t
(** [{ "shards", "n_requests", "engine_ms", "engine_rps", "p999_ms" }]. *)

(** {1 Open-loop traffic serving} *)

type traffic_run = {
  t_shards : int;
  t_requests : int;  (** events the stream emitted *)
  t_users : int;  (** distinct users (stable + churn) touched *)
  t_errors : int;  (** error replies (0 — traffic is valid by construction) *)
  t_ms : float;  (** wall time of the whole pump: submit + drains *)
  t_rps : float;  (** sustained requests per second *)
  t_p999_ms : float;  (** p999 of the replies' [time_ms] *)
  t_drains : int;
  t_epochs : int;  (** [evolve] steps that fired (base migrations) *)
  t_tier : Cdw_engine.Tier.stats option;  (** in-process, under a memory cap *)
  t_refine : Cdw_engine.Engine.refine_stats option;
      (** in-process, with refinement on — the anytime refiner's counters *)
}

val request_of_op : Cdw_workload.Traffic.op -> Cdw_engine.Engine.request
(** [Install]/[Withdraw] map directly; [Query] is the engine's free
    [Add []] — a session touch that hydrates a parked session exactly
    like a consent lookup would. *)

val serve_traffic :
  ?evolve:Cdw_workload.Evolve.step list ->
  ?refine:bool ->
  target ->
  Cdw_workload.Traffic.spec ->
  traffic_run
(** Pump the spec's whole event stream, drawn over the target base's
    connected pairs, through the target, draining at 50 ms boundaries
    of the stream's {e synthetic} timestamps — the drain cadence is a
    function of the stream alone, so runs are reproducible whatever the
    host's speed. [evolve] is a mutation schedule on the same synthetic
    clock: each step fires at the first drain boundary at or past its
    [at_ms], mutating the base the previous step installed (the
    target's base first) and installing the mutant; steps left when the
    stream ends fire at the final drain, so the run always lands on the
    schedule's last epoch. [refine] (default off; in-process only,
    [Invalid_argument] otherwise) turns the anytime refiner on
    ({!Serving.set_refine}, unless already on) and steps it between
    windows — up to 4 background solves per boundary, playing the
    production idle loop; after the stream ends the queue is flushed
    and one extra drain installs the last staged improvements. Memory
    caps are the caller's to set on the serving value beforehand. *)

val traffic_run_json : traffic_run -> Cdw_util.Json.t
(** Request/user counts, wall time, sustained rps, p999, drains, plus
    the tier counters ([mem_cap_bytes], [session_bytes],
    [sessions_resident_peak], [resident_bytes_peak], [hydrations],
    [evictions]) when capped and the refiner's when refining. *)

val pp_traffic : Format.formatter -> traffic_run -> unit

(** {1 Shard scaling} *)

type row = {
  r_shards : int;
  r_ms : float;
  r_rps : float;
  r_speedup : float;  (** vs the first row (shard count 1) *)
}

val scaling : Cdw_engine.Workbench.config -> row list
(** One {!serve} of an {!in_process} target per shard count (1, 2 and
    4), values closed after timing; [r_speedup] is each row's wall time
    relative to the first row's. *)

val scaling_json : row list -> Cdw_util.Json.t
(** The [BENCH_engine.json] ["shard_scaling"] payload: an array of
    [{ "shards", "engine_ms", "engine_rps", "speedup_vs_one" }]. *)

val pp_scaling : Format.formatter -> row list -> unit
