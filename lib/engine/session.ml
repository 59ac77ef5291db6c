module Algorithms = Cdw_core.Algorithms
module Incremental = Cdw_core.Incremental
module Splitmix = Cdw_util.Splitmix
module Trace = Cdw_obs.Trace

type t = {
  inner : Incremental.t;
  rng : Splitmix.t;
  metrics : Metrics.t;
}

(* Each algorithm's solve counter name, built once for every session. *)
let counters =
  List.map
    (fun a -> (a, "solve." ^ Algorithms.to_string a))
    Algorithms.all_names

let create ~index ~algorithm ~rng_seed id =
  let metrics = Shared_index.metrics index in
  let rng = Splitmix.create rng_seed in
  let options =
    {
      Algorithms.Options.default with
      rng = Some rng;
      paths_for = Some (Shared_index.path_provider index);
    }
  in
  let base = Shared_index.base index in
  let counter = List.assoc algorithm counters in
  let solver wf cs =
    Metrics.incr metrics counter;
    Shared_index.memoized index ~base ~algorithm wf cs (fun () ->
        Metrics.time metrics "solve" (fun () ->
            let args =
              if Trace.enabled () then
                [
                  ("algorithm", Algorithms.to_string algorithm);
                  ("user", id);
                  ("constraints", string_of_int (List.length cs));
                ]
              else []
            in
            Trace.span "solve" ~args (fun () ->
                Algorithms.cut ~options algorithm wf cs)))
  in
  let oracle =
    {
      Incremental.connected =
        (fun ~source ~target -> Shared_index.connected index ~source ~target);
    }
  in
  let inner =
    Incremental.create ~algorithm:solver ~oracle (Shared_index.base index)
  in
  { inner; rng; metrics }

let workflow t = Incremental.workflow t.inner
let constraints t = Incremental.constraints t.inner
let utility t = Incremental.utility t.inner
let stats t = Incremental.stats t.inner

(* Carry what a request did to the session's free hits and full
   re-solves into the engine registry, where the lifetime totals
   outlive eviction and [forget]. A counter is bumped only when the
   request moved it. *)
let counted t (before : Incremental.stats) result =
  let after = Incremental.stats t.inner in
  if after.free_hits <> before.free_hits then
    Metrics.incr ~by:(after.free_hits - before.free_hits) t.metrics
      "session.free_hits";
  if after.full_resolves <> before.full_resolves then
    Metrics.incr ~by:(after.full_resolves - before.full_resolves) t.metrics
      "session.full_resolves";
  result

let update t ~add ~withdraw =
  let before = Incremental.stats t.inner in
  counted t before (Incremental.update t.inner ~add ~withdraw)

let add t pairs =
  let before = Incremental.stats t.inner in
  counted t before (Incremental.add t.inner pairs)

let withdraw t pairs =
  let before = Incremental.stats t.inner in
  counted t before (Incremental.withdraw t.inner pairs)

let resolve t =
  let before = Incremental.stats t.inner in
  counted t before (Incremental.resolve_batch t.inner)

let cut_ids t = Incremental.delta_removed_ids t.inner

let restore t ~constraints ~removed_ids =
  Incremental.restore t.inner ~constraints ~removed_ids

let rng_state t = Splitmix.state t.rng
let set_rng_state t state = Splitmix.set_state t.rng state
