(** Periodic telemetry emitter: runs a snapshot callback on a fixed
    interval from a dedicated domain while the traced workload runs.

    The callback typically renders a metrics registry into files (a
    JSON-lines time-series append, a Prometheus exposition rewrite);
    what it writes is the caller's business. Callback exceptions are
    counted, not propagated — a full disk must not take the serving
    benchmark down. {!stop} joins the domain and runs one final emit so
    short runs (shorter than one interval) still leave a snapshot
    behind. *)

type t

val start : ?interval_s:float -> (unit -> unit) -> t
(** Spawn the emitter. [interval_s] defaults to 1.0 and is clamped to
    ≥ 0.05. *)

val stop : t -> unit
(** Signal, join, then emit once more. Idempotent. *)

val errors : t -> int
(** Test-only: the tests check that a failing sampler is counted.

    Callback invocations that raised. *)
