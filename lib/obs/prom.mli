(** Prometheus text exposition (format 0.0.4): rendering for the
    telemetry emitter and a minimal parser for round-trip validation.

    Rendering maps a counter set and a histogram set into one exposition
    body. Metric names are sanitized ([[a-zA-Z0-9_:]], everything else
    becomes ['_']) and prefixed with [cdw_].
    Histograms render the standard cumulative [_bucket{le="..."}] series
    over their non-empty buckets plus [_sum] and [_count].

    The parser understands exactly what {!render} emits — [# HELP] /
    [# TYPE] comments, samples with an optional single-depth label set —
    which is all the observability smoke test needs to prove the output
    round-trips. *)

val sanitize : string -> string
(** Replace every character outside [[a-zA-Z0-9_:]] with ['_']; prefix
    ['_'] if the first character is a digit. *)

type series_set = {
  s_labels : (string * string) list;
      (** labels attached to every sample of the set (e.g.
          [("shard", "3")]); may be empty *)
  s_counters : (string * int) list;
  s_gauges : (string * float) list;
  s_histograms : (string * Histogram.t) list;
}

val render_sets : series_set list -> string
(** Render several label sets of the same registry shape into one
    exposition — the sharded serving group's view, where each shard
    contributes the same metric names under its own [shard] label.
    All series of one metric name are grouped under a single [# TYPE]
    block (metric names first, label sets second), as the exposition
    format requires. Metric and label names are sanitized; label
    values are emitted verbatim and must not contain quotes or
    backslashes. *)

val render :
  ?gauges:(string * float) list ->
  counters:(string * int) list ->
  histograms:(string * Histogram.t) list ->
  unit ->
  string
(** {!render_sets} with a single unlabelled set. Histogram metric names
    get a [_ms] unit suffix (latencies are recorded in
    milliseconds). *)

type sample = {
  metric : string;
  labels : (string * string) list;
  value : float;
}

val parse : string -> (sample list, string) result
(** Samples in exposition order. [Error] carries the 1-based line
    number and reason of the first malformed line. *)

type lint = {
  l_samples : int;  (** samples checked *)
  l_histograms : int;  (** histogram families (base name × label set) *)
}

val lint : sample list -> (lint, string) result
(** Histogram exposition conformance over parsed samples: every
    [_bucket] family (grouped by base name and labels minus [le]) must
    have parseable [le] values, cumulative bucket counts
    (non-decreasing by ascending [le]), a closing [le="+Inf"] bucket,
    and sibling [_count] (equal to the +Inf bucket) and [_sum] series
    under the same label set. [Error] names the first offending family
    and defect. *)
