(** Deterministic workflow evolution schedules — the [--evolve SPEC]
    behind [serve-bench] and [bench/engine]: scripted mid-run base
    mutations that exercise live epoch installs
    ({!Cdw_shard.Serving.migrate}, DESIGN.md §16).

    A spec is a [';']-separated list of steps, each a comma-separated
    list of [key:value] items (same grammar family as
    {!Traffic.spec_of_string}):

    {v at:250,add:2,drop:1,reprice:2,purposes:1,seed:7 v}

    - [at]: milliseconds into the run at which the step fires (steps
      must be written in non-decreasing [at] order);
    - [add]/[drop]: structural edge churn;
    - [reprice]: user out-edges whose initial valuation changes
      (consent churn without structural churn);
    - [purposes]: brand-new purpose vertices (each with one in-edge);
    - [seed]: the generator seed — a step is a pure function of the
      base workflow and these six numbers, so replays and cross-process
      runs mutate identically.

    Every mutant satisfies {!Cdw_core.Workflow.validate} by
    construction: drops never orphan an endpoint, adds follow a
    topological order of the old base (the DAG stays a DAG) and the
    kind rules, and new purposes arrive already connected. *)

type step = {
  at_ms : float;
  add_edges : int;
  drop_edges : int;
  reprice_edges : int;
  add_purposes : int;
  seed : int;
}

val default_step : step
(** [at:0,add:2,drop:1,reprice:2,purposes:0,seed:42] — the fields a
    step's items don't mention. *)

val spec_of_string : string -> (step list, string) result
val spec_to_string : step list -> string
(** Test-only: the spec parser's round-trip tests. *)

val mutate : step -> Cdw_core.Workflow.t -> Cdw_core.Workflow.t
(** [mutate step wf] is the next base: a fresh builder workflow with
    [wf]'s vertices (same names, kinds, weights, and — because they are
    re-added in id order — the same ids), its surviving edges at their
    (possibly repriced) values, plus the step's additions. Install it
    with {!Cdw_engine.Engine.migrate} / {!Cdw_shard.Serving.migrate} or
    ship it over the wire via {!Cdw_core.Serialize.to_string} and
    {!Cdw_net.Client.install_epoch}. *)
