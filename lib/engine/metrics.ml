module Histogram = Cdw_obs.Histogram
module Json = Cdw_util.Json
module Prom = Cdw_obs.Prom
module Stats = Cdw_util.Stats
module Timing = Cdw_util.Timing

(* One latency key: exact running moments (count, sum, Welford's M2 —
   the sum of squared deviations from the mean), min and max, and a
   log-linear histogram that yields bucket-exact percentiles. A
   long-running engine records millions of samples in O(buckets)
   memory, and std/se stay exact over the whole stream, across
   [merge_into] too (Chan et al.'s pairwise update). *)
type series = {
  mutable count : int;
  mutable sum : float;
  mutable m2 : float;
  mutable minv : float;
  mutable maxv : float;
  hist : Histogram.t;
}

type t = {
  lock : Mutex.t;
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, float ref) Hashtbl.t;
      (* last-value-wins instruments (e.g. the current base epoch), as
         opposed to the monotone [counters] *)
  samples : (string, series) Hashtbl.t;
}

let create () =
  {
    lock = Mutex.create ();
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 8;
    samples = Hashtbl.create 16;
  }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let cell tbl key fresh =
  match Hashtbl.find_opt tbl key with
  | Some c -> c
  | None ->
      let c = fresh () in
      Hashtbl.add tbl key c;
      c

let incr ?(by = 1) t name =
  with_lock t (fun () ->
      let c = cell t.counters name (fun () -> ref 0) in
      c := !c + by)

let counter t name =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.counters name with
      | Some c -> !c
      | None -> 0)

let counters t =
  with_lock t (fun () ->
      Hashtbl.fold (fun name c acc -> (name, !c) :: acc) t.counters [])
  |> List.sort compare

let set_gauge t name v =
  with_lock t (fun () ->
      let c = cell t.gauges name (fun () -> ref 0.0) in
      c := v)

let gauge t name =
  with_lock t (fun () -> Option.map ( ! ) (Hashtbl.find_opt t.gauges name))

let gauges t =
  with_lock t (fun () ->
      Hashtbl.fold (fun name c acc -> (name, !c) :: acc) t.gauges [])
  |> List.sort compare

let fresh_series () =
  {
    count = 0;
    sum = 0.0;
    m2 = 0.0;
    minv = infinity;
    maxv = neg_infinity;
    hist = Histogram.create ();
  }

(* Welford's update, with the running mean read off [sum]. *)
let record_series s ms =
  let mean_before =
    if s.count = 0 then 0.0 else s.sum /. float_of_int s.count
  in
  s.count <- s.count + 1;
  s.sum <- s.sum +. ms;
  s.m2 <-
    s.m2 +. ((ms -. mean_before) *. (ms -. (s.sum /. float_of_int s.count)));
  if ms < s.minv then s.minv <- ms;
  if ms > s.maxv then s.maxv <- ms;
  Histogram.record s.hist ms

let record_ms t key ms =
  with_lock t (fun () -> record_series (cell t.samples key fresh_series) ms)

let record_all_ms t key samples =
  if samples <> [] then
    with_lock t (fun () ->
        List.iter (record_series (cell t.samples key fresh_series)) samples)

(* A raising thunk still gets its duration recorded, plus an error
   counter — failure latency matters as much as success latency, and a
   key that silently stops reporting on errors hides exactly the runs
   one is debugging. *)
let time t key f =
  let t0 = Timing.now_ms () in
  match f () with
  | result ->
      record_ms t key (Timing.now_ms () -. t0);
      result
  | exception exn ->
      let bt = Printexc.get_raw_backtrace () in
      record_ms t key (Timing.now_ms () -. t0);
      incr t (key ^ ".error");
      Printexc.raise_with_backtrace exn bt

let summary_of_series s =
  if s.count = 0 then None
  else
    let n = float_of_int s.count in
    let std = if s.count < 2 then 0.0 else sqrt (s.m2 /. (n -. 1.0)) in
    Some
      {
        Stats.n = s.count;
        mean = s.sum /. n;
        std;
        se = std /. sqrt n;
        min = s.minv;
        max = s.maxv;
      }

let summary t key =
  with_lock t (fun () ->
      Option.bind (Hashtbl.find_opt t.samples key) summary_of_series)

(* Percentiles come from the histogram: bucket-exact at any stream
   length. *)
let percentile t key q =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.samples key with
      | Some s when s.count > 0 -> Some (Histogram.percentile s.hist q)
      | Some _ | None -> None)

let histogram_buckets t key =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.samples key with
      | None -> []
      | Some s ->
          List.map
            (fun (i, c) ->
              let lo, hi = Histogram.bucket_bounds i in
              (lo, hi, c))
            (Histogram.nonempty_buckets s.hist))

let quantile_fields h =
  [
    ("p50", Json.Number (Histogram.percentile h 0.5));
    ("p90", Json.Number (Histogram.percentile h 0.9));
    ("p99", Json.Number (Histogram.percentile h 0.99));
    ("p999", Json.Number (Histogram.percentile h 0.999));
  ]

let summary_json ?hist (s : Stats.summary) =
  Json.Object
    ([
       ("n", Json.Number (float_of_int s.Stats.n));
       ("mean", Json.Number s.Stats.mean);
       ("std", Json.Number s.Stats.std);
       ("se", Json.Number s.Stats.se);
       ("min", Json.Number s.Stats.min);
       ("max", Json.Number s.Stats.max);
     ]
    @ match hist with Some h when s.Stats.n > 0 -> quantile_fields h | _ -> [])

let to_json t =
  let latencies =
    with_lock t (fun () ->
        Hashtbl.fold
          (fun key s acc ->
            match summary_of_series s with
            | Some summary -> (key, summary_json ~hist:s.hist summary) :: acc
            | None -> acc)
          t.samples [])
    |> List.sort compare
  in
  Json.Object
    [
      ( "counters",
        Json.Object
          (List.map
             (fun (name, n) -> (name, Json.Number (float_of_int n)))
             (counters t)) );
      ( "gauges",
        Json.Object
          (List.map (fun (name, v) -> (name, Json.Number v)) (gauges t)) );
      ("latency_ms", Json.Object latencies);
    ]

(* ---------------------------------------------------------------- *)
(* Cross-registry folding — the sharded group view.                   *)

(* A consistent copy of one registry's contents, taken under its lock.
   Histograms are copied (merge into a fresh one) because the source
   keeps mutating them after the lock drops. *)
let snapshot t =
  with_lock t (fun () ->
      let counters =
        Hashtbl.fold (fun name c acc -> (name, !c) :: acc) t.counters []
        |> List.sort compare
      in
      let gauges =
        Hashtbl.fold (fun name c acc -> (name, !c) :: acc) t.gauges []
        |> List.sort compare
      in
      let series =
        Hashtbl.fold
          (fun key s acc ->
            let hist = Histogram.create () in
            Histogram.merge_into ~into:hist s.hist;
            (key, ({ s with hist } : series)) :: acc)
          t.samples []
        |> List.sort (fun (a, _) (b, _) -> compare a b)
      in
      (counters, gauges, series))

(* Fold [src] into [into]: counters add; per-key count/sum/min/max
   and the M2 moment stay exact (Chan et al.'s pairwise combination),
   and the histograms merge bucket-exactly, so merged percentiles keep
   the single-registry error bound. Locks are taken one at a time
   (snapshot src, then update into), so any merge order between live
   registries is deadlock-free. *)
let merge_into ~into src =
  let counters, gauges, series = snapshot src in
  List.iter (fun (name, n) -> incr ~by:n into name) counters;
  (* Gauges are level instruments, not sums: the group view keeps the
     maximum (for the epoch gauge, "the newest base any shard serves" —
     shards of one group agree outside a migration window anyway). *)
  List.iter
    (fun (name, v) ->
      match gauge into name with
      | Some v' when v' >= v -> ()
      | _ -> set_gauge into name v)
    gauges;
  List.iter
    (fun (key, (b : series)) ->
      with_lock into (fun () ->
          let a = cell into.samples key fresh_series in
          if a.count = 0 then begin
            a.sum <- b.sum;
            a.m2 <- b.m2
          end
          else if b.count > 0 then begin
            let na = float_of_int a.count and nb = float_of_int b.count in
            let delta = (b.sum /. nb) -. (a.sum /. na) in
            a.m2 <- a.m2 +. b.m2 +. (delta *. delta *. na *. nb /. (na +. nb));
            a.sum <- a.sum +. b.sum
          end;
          a.count <- a.count + b.count;
          if b.minv < a.minv then a.minv <- b.minv;
          if b.maxv > a.maxv then a.maxv <- b.maxv;
          Histogram.merge_into ~into:a.hist b.hist))
    series

(* Prometheus text exposition of the whole registry. The histograms are
   rendered under the metrics lock: recording mutates them in place and
   the emitter runs on its own domain. *)
let prometheus t =
  with_lock t (fun () ->
      let counters =
        Hashtbl.fold (fun name c acc -> (name, !c) :: acc) t.counters []
        |> List.sort compare
      in
      let gauges =
        Hashtbl.fold (fun name c acc -> (name, !c) :: acc) t.gauges []
        |> List.sort compare
      in
      let histograms =
        Hashtbl.fold (fun key s acc -> (key, s.hist) :: acc) t.samples []
        |> List.sort (fun (a, _) (b, _) -> compare a b)
      in
      Prom.render ~gauges ~counters ~histograms ())

(* Shard-labelled exposition: one set per (labels, registry) pair, all
   series of a metric name grouped under one TYPE block. Each registry
   is snapshotted under its own lock, one at a time. *)
let prometheus_sets sets =
  Prom.render_sets
    (List.map
       (fun (labels, t) ->
         let counters, gauges, series = snapshot t in
         {
           Prom.s_labels = labels;
           s_counters = counters;
           s_gauges = gauges;
           s_histograms = List.map (fun (k, (s : series)) -> (k, s.hist)) series;
         })
       sets)
