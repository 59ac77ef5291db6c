(** Engine observability: named counters, gauges and latency recorders.

    One {!t} is shared by everything inside an engine — the shared
    index, every session, the batch scheduler — and by every domain of
    a fanning drain at once, so every operation is thread-safe, and
    none that runs at request rate takes a lock:

    - names live in copy-on-insert tables: a lookup reads the current
      table without a lock, and only registering a name (its first
      use) takes the registry mutex, copies the table and publishes
      the copy;
    - a counter is an [Atomic] add, a gauge an [Atomic] store;
    - a latency key keeps one record per recording domain, written by
      that domain alone and merged on read. Two threads of one domain
      must not record at once: the engine records latencies only in
      drains and migrations, which one thread drives at a time
      ([Cdw_shard.Serving] serializes them), and a fanning drain's
      other tasks run on other domains.

    Readers ({!counter}, {!summary}, {!to_json}, {!prometheus},
    {!merge_into}) take no lock either. Counters and latency keys
    spring into existence on first use: callers never pre-register.

    Latency summaries come from {!Cdw_util.Stats} and the whole registry
    exports as {!Cdw_util.Json} for the [cdw serve-bench] subcommand and
    the engine benchmark.

    Latency storage is bounded: each key keeps, per recording domain,
    exact running moments (count, mean, Welford's sum of squared
    deviations, min, max) and a log-linear {!Cdw_obs.Histogram} giving
    bucket-exact p50/p90/p99/p999 — a long-running engine records
    millions of samples in O(domains × buckets) memory, and
    {!summary}/{!percentile} stay stable however long the stream. The
    per-domain records merge exactly (moments pairwise, histograms by
    bucket), so a key one domain recorded reads bit for bit as a single
    stream. A read racing a recording domain may see that domain's
    record mid-update. *)

type t

val create : unit -> t

val lock_entries : t -> int
(** Test-only: the tests check that serving a warmed-up script never
    takes the registry lock.

    How many times the registry mutex was taken: once per name
    registration (and per racing writer that lost one). *)

(** {1 Counters} *)

val incr : ?by:int -> t -> string -> unit

val counter : t -> string -> int
(** 0 for never-touched counters. *)

(** {1 Gauges} *)

val set_gauge : t -> string -> float -> unit
(** Set a last-value-wins instrument (e.g. the current base epoch) —
    unlike {!incr}ed counters, a gauge may move in either direction. *)

val gauge : t -> string -> float option
(** [None] for never-set gauges. *)

(** {1 Latencies} *)

val record_ms : t -> string -> float -> unit
(** Record one latency sample (milliseconds) under the given key. *)

val record_all_ms : t -> string -> float list -> unit
(** {!record_ms} of each sample in order. *)

val time : t -> string -> (unit -> 'a) -> 'a
(** Run the thunk, record its wall-clock duration under the key, return
    its result. A raising thunk still gets its duration recorded and
    bumps the [<key>.error] counter before the exception propagates
    (with its original backtrace), so error paths stay visible in
    telemetry. *)

val percentile : t -> string -> float -> float option
(** Histogram percentile ([q] in [0, 1]) for a key; [None] when no
    sample was recorded. Within one log-linear bucket width (~6%
    relative) of the true order statistic, at any stream length. *)

val histogram_buckets : t -> string -> (float * float * int) list
(** Test-only: lets the tests check bucket placement.

    Non-empty histogram buckets of a key as [(lo, hi, count)], in value
    order. *)

val summary : t -> string -> Cdw_util.Stats.summary option
(** [None] when no sample was recorded under the key. Every field is
    exact over the full stream, up to float rounding. *)

(** {1 Merging} *)

val merge_into : into:t -> t -> unit
(** [merge_into ~into src] folds [src]'s contents into [into] — the
    sharded serving group's merged view. Counters add; gauges keep the
    maximum of the two sides (the group view of a level instrument like
    the epoch gauge is "the newest any shard reports"); per-key [n],
    [mean], [min], [max], [std] and [se] stay exact (the moments
    combine pairwise) and histograms merge bucket-exactly (so merged
    percentiles keep the single-registry error bound). [src] is only
    read; its keys merge into the calling domain's records of [into]. *)

(** {1 Export} *)

val to_json : t -> Cdw_util.Json.t
(** [{ "counters": { name: count, … },
       "gauges": { name: value, … },
       "latency_ms": { key: { "n", "mean", "std", "se", "min", "max",
                              "p50", "p90", "p99", "p999" }, … } }] *)

val prometheus : t -> string
(** The whole registry in Prometheus text exposition format (namespace
    [cdw]): counters as counters, latency keys as [_ms] histograms with
    cumulative [le] buckets, [_sum] and [_count]. *)

val prometheus_sets : ((string * string) list * t) list -> string
(** Several registries in one exposition, each sample carrying its
    registry's label set (e.g. [[("shard", "0")]]) — all series of a
    metric name grouped under a single [# TYPE] block as the format
    requires. *)
