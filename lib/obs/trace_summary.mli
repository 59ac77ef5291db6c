(** Per-phase time breakdown of a Chrome trace-event JSON trace — the
    engine behind [cdw trace summarize].

    The summary pairs begin/end events per process and domain
    ((pid, tid) — a merged multi-process trace reuses tids) into spans,
    aggregates them by name (count, total, self = total minus nested
    children on the same domain, max) and reports how much of the
    engine's drain wall time the instrumentation accounts for: the
    coverage of an ["engine.drain"] span is the fraction of its duration
    spent inside its direct same-domain children (dequeue, plan,
    execute, settle), so low coverage means un-instrumented time on the
    drain path.

    ["X"] complete events — the {!Flight} recorder's dump format — are
    aggregated too, with self = total (they carry no nesting
    information).

    {!scaling_of_json} builds the second report, over the sharded span
    vocabulary (["group.drain"], ["shard.drain"] and its tiling phases,
    ["group.merge"]): per-shard drain wall attributed to
    execute/journal/sort/gather, plus a barrier bucket — the group
    drain wall a shard sat through beyond its own work, i.e. time
    parked waiting for the slowest sibling. *)

type row = {
  name : string;
  count : int;
  total_ms : float;
  self_ms : float;
  max_ms : float;
}

type report = {
  rows : row list;  (** sorted by total time, descending *)
  events : int;  (** B/E/X events consumed *)
  unbalanced : int;  (** begin events with no matching end (dropped tails) *)
  wall_ms : float;  (** last end timestamp minus first begin *)
  drain_wall_ms : float;  (** total duration of ["engine.drain"] spans *)
  drain_covered_ms : float;
      (** time inside the drains' direct same-domain children *)
}

val coverage : report -> float
(** [drain_covered_ms / drain_wall_ms], 0 when no drain span exists. *)

val of_json : Cdw_util.Json.t -> (report, string) result
(** Accepts both the [{ "traceEvents": [...] }] object form and a bare
    event array. Unknown phase types (metadata, counters) are
    skipped. *)

val of_file : string -> (report, string) result

val pp : Format.formatter -> report -> unit

(** {1 Scaling report} *)

type shard_row = {
  sh_shard : int;
  sh_drains : int;  (** ["shard.drain"] spans for this shard *)
  sh_drain_ms : float;  (** their total duration *)
  sh_execute_ms : float;
  sh_journal_ms : float;
  sh_sort_ms : float;
  sh_gather_ms : float;
  sh_barrier_ms : float;
      (** group drain wall minus this shard's own drain work and the
          caller-side merge — time parked at the gather barrier *)
  sh_coverage : float;
      (** (execute + journal + sort + gather) / drain, clamped to 1:
          the fraction of the shard's drain wall the tiling phases
          account for *)
}

type scaling = {
  sc_shards : shard_row list;  (** sorted by shard index *)
  sc_drains : int;  (** ["group.drain"] spans *)
  sc_wall_ms : float;  (** their total duration *)
  sc_merge_ms : float;  (** caller-side ["group.merge"] total *)
}

val scaling_of_json : Cdw_util.Json.t -> (scaling, string) result
(** Test-only: the trace tests round-trip the scaling table.

    [Error] when the trace has no ["group.drain"] span (single-engine
    trace). Works on both live-trace B/E exports and flight-recorder
    X-event dumps. *)

val scaling_of_file : string -> (scaling, string) result
val pp_scaling : Format.formatter -> scaling -> unit
