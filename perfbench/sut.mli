(** The system under test, as the benchmark sees it.

    This is the only module of the benchmark that names the serving
    entry points — [Cdw_shard.Serving.{create, submit, drain, migrate,
    journal, snapshot, resume, set_mem_cap, metrics, domain_stats,
    tier_stats, session_states, base, close}] and
    [Cdw_net.{Server, Client, Wire}]. A refactor of the serving surface
    must keep these working (or change this one file); everything else
    in the benchmark talks to {!t}.

    Drains never pass [~mode]: the benchmark measures the default
    drain, as a deployment would run it. *)

type shape = {
  algorithm : Cdw_core.Algorithms.name;
  shards : int;  (** 1 = a single engine *)
  mem_cap_sessions : int option;
      (** resident-session cap; the byte cap is this many times a fixed
          per-session charge, so the cap does not move with the
          measured session size *)
  wire : bool;
      (** serve over a Unix socket: the server runs in this process on
          its own domain, the benchmark drives it through one
          {!Cdw_net.Client} connection *)
  journal : Cdw_store.Wal.fsync_policy option;
      (** attach a ledger at set-up, with this fsync policy *)
}

type t

val setup : shape -> seed:int -> dir:string -> Cdw_core.Workflow.t -> t
(** Workflow in hand → serving value ready: create (with [seed] as the
    engine seed), memory cap, ledger (under [dir]/ledger), server start
    and client connect (socket in [dir]). [dir] must exist and be private
    to this value. *)

val submit : t -> user:string -> Cdw_engine.Engine.request -> unit
(** Raises [Failure] (wire) or [Invalid_argument] when the submit is
    rejected. Over the wire submits are pipelined: a rejection may
    surface at the next {!drain}. *)

val drain : t -> Cdw_engine.Engine.reply list

val migrate : t -> Cdw_core.Workflow.t -> unit
(** Install the next base epoch live, at a drain boundary. In-process:
    no workload migrates over the wire. *)

val base : t -> Cdw_core.Workflow.t

val session_states : t -> (string * (int * int) list * int list) list
(** Every user's (accepted pairs, cut edge ids), sorted by user. *)

val metrics : t -> Cdw_engine.Metrics.t
val tier_stats : t -> Cdw_engine.Tier.stats option
val domain_stats : t -> Cdw_engine.Domain_acct.stats list

val ledger_dir : t -> string

val persist : t -> unit
(** Make the served state durable under {!ledger_dir}: a journaled value
    already is (its ledger is flushed by {!close}, and recovery replays
    its WAL); an unjournaled one gets a ledger holding one snapshot of
    its current state. Call at a drain boundary. *)

val close : t -> unit
(** Disconnect, stop the server (joining its domain) and release the
    serving value. Idempotent. *)

val resume : string -> t
(** [Cdw_shard.Serving.resume] of a ledger root, as an in-process
    value. Raises [Failure] if the ledger cannot be recovered. *)

(** {1 Wire codec} *)

val codec_cost :
  (string * Cdw_engine.Engine.request) array -> float * float * float
(** Encode then decode each [Submit] payload of the given requests with
    {!Cdw_net.Wire} directly: (ns per encode, ns per decode, framed
    bytes per request). Raises [Failure] if a payload does not
    round-trip. *)
