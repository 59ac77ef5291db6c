(** Per-drain-domain stall accounting: where each pinned shard domain's
    wall time went, answered without tracing enabled.

    The series live in the shard engine's own {!Metrics} registry,
    under the names {!counter_key} and {!gauge_key} give
    (["domain.busy_us"], …), so the serving exposition renders them
    with the rest of the shard's metrics under its [shard] label. This
    module declares them ({!declare}) and reads them back ({!stats}).
    Reading is lock-free: a flight dump's context thunk reads them from
    a signal handler.

    Counters (µs unless named otherwise, all monotonic):
    - [busy]: wall time inside the shard's drain, end to end;
    - [idle]: time the pinned domain spent waiting for a command;
    - [barrier]: after this shard finished a scattered drain, how long
      it waited for the {e slowest} shard of the same group drain — the
      scatter/gather synchronization cost;
    - [sort]/[journal]/[execute]/[gather]: the drain's phases — inbox
      seq-sort, WAL-inclusive ingest, engine drain, reply regroup
      (they tile [busy] almost exactly; the remainder is bookkeeping);
    - [journal_lag]: Σ over ingested items of (ingest time − submit
      time) — how far write-behind journaling runs behind the submit
      stream;
    - [drains], [items]: shard drains run and requests they took.

    Gauges (levels, which a counter must never be):
    - [journal_lag_peak]: the worst single item's journal lag;
    - [inbox_depth_last]/[_peak]: the MPSC inbox depth sampled at each
      drain (the inbox only grows between drains, so the drain-boundary
      sample {e is} the interval peak). *)

type counter =
  | Busy
  | Idle
  | Barrier
  | Sort
  | Journal
  | Execute
  | Gather
  | Journal_lag
  | Drains
  | Items

type gauge = Journal_lag_peak | Inbox_depth_last | Inbox_depth_peak

val counter_key : counter -> string
(** The counter's registry name, e.g. ["domain.busy_us"]. *)

val gauge_key : gauge -> string

val declare : Metrics.t -> unit
(** Register every series at zero, so a shard's exposition carries all
    of them from its creation on, whether or not it idled or waited. *)

(** An immutable snapshot of one domain's series. *)
type stats = {
  s_shard : int;
  s_busy_us : int;
  s_idle_us : int;
  s_barrier_us : int;
  s_sort_us : int;
  s_journal_us : int;
  s_execute_us : int;
  s_gather_us : int;
  s_journal_lag_us : int;
  s_journal_lag_peak_us : int;
  s_drains : int;
  s_items : int;
  s_inbox_depth_last : int;
  s_inbox_depth_peak : int;
}

val stats : shard:int -> Metrics.t -> stats
(** The series of shard [shard]'s registry. *)

val stats_json : stats -> Cdw_util.Json.t
(** One flat object: [{"shard": i, "busy_us": ..., ...}] — the element
    shape of the serving metrics' ["domains"] array. *)

val barrier_fraction : stats list -> float
(** [Σ barrier / (Σ busy + Σ barrier)] across the domains — the share
    of drain-related wall time lost to the scatter/gather barrier. 0
    when nothing has drained. *)
