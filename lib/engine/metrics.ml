module Histogram = Cdw_obs.Histogram
module Json = Cdw_util.Json
module Prom = Cdw_obs.Prom
module Stats = Cdw_util.Stats
module Timing = Cdw_util.Timing

(* The registry's name tables are copy-on-insert: a published table is
   never mutated again, so a lookup reads the current one without a
   lock, and registering a name copies the table under the registry
   lock, adds the name and publishes the copy. Names are few and
   registered once, so the copies cost nothing that matters. *)
module Names = Hashtbl.Make (String)

(* One domain's share of a latency key: a log-linear histogram, which
   holds the exact count, sum, min and max next to the buckets that
   yield bucket-exact percentiles, and Welford's M2 (the sum of squared
   deviations from the mean). A long-running engine records millions
   of samples in O(buckets) memory, and std/se stay exact over the
   whole stream, across domains and [merge_into] too (Chan et al.'s
   pairwise update). Only the domain holding the local's slot writes
   it. [m2] sits in a record of floats only, stored unboxed, so a
   sample allocates nothing. *)
type moment = { mutable m2 : float }
type local = { hist : Histogram.t; moment : moment }

(* A latency key: one [local] per domain slot that has recorded under
   it, indexed by slot and merged on read. The array is copy-on-write,
   published by compare-and-set, so a domain adding its own local never
   loses another domain's. *)
type series = local option array Atomic.t

type t = {
  lock : Mutex.t;  (* taken only to register a name *)
  lock_entries : int Atomic.t;
  counters : int Atomic.t Names.t Atomic.t;
  gauges : float Atomic.t Names.t Atomic.t;
      (* last-value-wins instruments (e.g. the current base epoch), as
         opposed to the monotone [counters] *)
  samples : series Names.t Atomic.t;
}

let create () =
  {
    lock = Mutex.create ();
    lock_entries = Atomic.make 0;
    counters = Atomic.make (Names.create 32);
    gauges = Atomic.make (Names.create 8);
    samples = Atomic.make (Names.create 16);
  }

let lock_entries t = Atomic.get t.lock_entries

(* The slow path: register [name] unless a racing writer already has. *)
let register t tbl name fresh =
  Mutex.lock t.lock;
  Atomic.incr t.lock_entries;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      let current = Atomic.get tbl in
      match Names.find_opt current name with
      | Some c -> c
      | None ->
          let c = fresh () in
          let next = Names.copy current in
          Names.add next name c;
          Atomic.set tbl next;
          c)

let cell t tbl name fresh =
  match Names.find_opt (Atomic.get tbl) name with
  | Some c -> c
  | None -> register t tbl name fresh

(* Name-sorted [(name, f cell)] of one table. [to_seq], not [fold]:
   a fold marks the table as traversed in place, which is a write that
   concurrent readers would race on. *)
let sorted tbl f =
  Names.to_seq (Atomic.get tbl)
  |> Seq.map (fun (name, c) -> (name, f c))
  |> List.of_seq
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let incr ?(by = 1) t name =
  let c = cell t t.counters name (fun () -> Atomic.make 0) in
  ignore (Atomic.fetch_and_add c by)

let counter t name =
  match Names.find_opt (Atomic.get t.counters) name with
  | Some c -> Atomic.get c
  | None -> 0

let set_gauge t name v =
  Atomic.set (cell t t.gauges name (fun () -> Atomic.make 0.0)) v

let gauge t name =
  Option.map Atomic.get (Names.find_opt (Atomic.get t.gauges) name)

(* ---------------------------------------------------------------- *)
(* Domain slots                                                       *)

(* Every domain that records a latency gets a small slot number, its
   index into each series' locals. A domain hands its slot back when it
   exits and the next new domain reuses it (the hand-over goes through
   [slots_lock], so the new owner sees the old one's writes), so slot
   numbers stay below the number of domains alive at once however many
   come and go. *)
let slots_lock = Mutex.create ()
let free_slots = ref []
let next_slot = ref 0

let slot_key =
  Domain.DLS.new_key (fun () ->
      Mutex.lock slots_lock;
      let slot =
        match !free_slots with
        | s :: rest ->
            free_slots := rest;
            s
        | [] ->
            let s = !next_slot in
            next_slot := s + 1;
            s
      in
      Mutex.unlock slots_lock;
      Domain.at_exit (fun () ->
          Mutex.lock slots_lock;
          free_slots := slot :: !free_slots;
          Mutex.unlock slots_lock);
      slot)

let fresh_local () = { hist = Histogram.create (); moment = { m2 = 0.0 } }

(* First record of this domain under a key: publish its local. *)
let add_local (s : series) slot =
  let l = fresh_local () in
  let rec publish () =
    let ls = Atomic.get s in
    let grown = Array.make (max (Array.length ls) (slot + 1)) None in
    Array.blit ls 0 grown 0 (Array.length ls);
    grown.(slot) <- Some l;
    if not (Atomic.compare_and_set s ls grown) then publish ()
  in
  publish ();
  l

let local (s : series) =
  let slot = Domain.DLS.get slot_key in
  let ls = Atomic.get s in
  match if slot < Array.length ls then ls.(slot) else None with
  | Some l -> l
  | None -> add_local s slot

(* Welford's update, with the running mean read off the histogram's
   sum. *)
let record_local l ms =
  let h = l.hist in
  let n = Histogram.count h in
  let mean_before = if n = 0 then 0.0 else Histogram.sum h /. float_of_int n in
  Histogram.record h ms;
  let mean_after = Histogram.sum h /. float_of_int (n + 1) in
  l.moment.m2 <- l.moment.m2 +. ((ms -. mean_before) *. (ms -. mean_after))

let series t key = local (cell t t.samples key (fun () -> Atomic.make [||]))
let record_ms t key ms = record_local (series t key) ms

let record_all_ms t key samples =
  if samples <> [] then List.iter (record_local (series t key)) samples

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

(* Fold [b] into [a]: count/sum/min/max and the M2 moment stay exact
   (Chan et al.'s pairwise combination), and the histograms merge
   bucket-exactly, so merged percentiles keep the single-local error
   bound. Into an empty [a] this is an exact copy. *)
let merge_local ~into:a b =
  let ca = Histogram.count a.hist and cb = Histogram.count b.hist in
  if ca = 0 then a.moment.m2 <- b.moment.m2
  else if cb > 0 then begin
    let na = float_of_int ca and nb = float_of_int cb in
    let delta =
      (Histogram.sum b.hist /. nb) -. (Histogram.sum a.hist /. na)
    in
    a.moment.m2 <-
      a.moment.m2 +. b.moment.m2 +. (delta *. delta *. na *. nb /. (na +. nb))
  end;
  Histogram.merge_into ~into:a.hist b.hist

(* A key's locals as one, read-only: the local itself when one domain
   recorded the key, else the locals folded into a fresh one in slot
   order. Read while other domains record, this may see a local
   mid-update; each field is still a value that local held. *)
let merged (s : series) =
  match List.filter_map Fun.id (Array.to_list (Atomic.get s)) with
  | [ l ] -> l
  | ls ->
      let acc = fresh_local () in
      List.iter (merge_local ~into:acc) ls;
      acc

let find_merged t key =
  match Names.find_opt (Atomic.get t.samples) key with
  | Some s ->
      let l = merged s in
      if Histogram.count l.hist > 0 then Some l else None
  | None -> None

(* Name-sorted merged keys with at least one sample. *)
let merged_series t =
  List.filter
    (fun (_, l) -> Histogram.count l.hist > 0)
    (sorted t.samples merged)

let summary_of_local l =
  let h = l.hist in
  let count = Histogram.count h in
  let n = float_of_int count in
  let std = if count < 2 then 0.0 else sqrt (l.moment.m2 /. (n -. 1.0)) in
  {
    Stats.n = count;
    mean = Histogram.sum h /. n;
    std;
    se = std /. sqrt n;
    min = Histogram.min_value h;
    max = Histogram.max_value h;
  }

let summary t key = Option.map summary_of_local (find_merged t key)

(* Percentiles come from the histogram: bucket-exact at any stream
   length. *)
let percentile t key q =
  Option.map (fun l -> Histogram.percentile l.hist q) (find_merged t key)

let histogram_buckets t key =
  match find_merged t key with
  | None -> []
  | Some l ->
      List.map
        (fun (i, c) ->
          let lo, hi = Histogram.bucket_bounds i in
          (lo, hi, c))
        (Histogram.nonempty_buckets l.hist)

let quantile_fields h =
  [
    ("p50", Json.Number (Histogram.percentile h 0.5));
    ("p90", Json.Number (Histogram.percentile h 0.9));
    ("p99", Json.Number (Histogram.percentile h 0.99));
    ("p999", Json.Number (Histogram.percentile h 0.999));
  ]

let summary_json l =
  let s = summary_of_local l in
  Json.Object
    ([
       ("n", Json.Number (float_of_int s.Stats.n));
       ("mean", Json.Number s.Stats.mean);
       ("std", Json.Number s.Stats.std);
       ("se", Json.Number s.Stats.se);
       ("min", Json.Number s.Stats.min);
       ("max", Json.Number s.Stats.max);
     ]
    @ quantile_fields l.hist)

let counters t = sorted t.counters Atomic.get
let gauges t = sorted t.gauges Atomic.get

let to_json t =
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
      ( "latency_ms",
        Json.Object
          (List.map (fun (key, l) -> (key, summary_json l)) (merged_series t))
      );
    ]

(* ---------------------------------------------------------------- *)
(* Cross-registry folding — the sharded group view.                   *)

(* Fold [src] into [into]: counters add, gauges keep the larger value,
   and each key of [src] merges into the calling domain's local of the
   same key in [into], exactly as {!merge_local} combines two locals.
   [src] is only read, so merges between live registries in any order
   never wait on each other. *)
let merge_into ~into src =
  List.iter (fun (name, n) -> incr ~by:n into name) (counters src);
  (* Gauges are level instruments, not sums: the group view keeps the
     maximum (for the epoch gauge, "the newest base any shard serves" —
     shards of one group agree outside a migration window anyway). *)
  List.iter
    (fun (name, v) ->
      match gauge into name with
      | Some v' when v' >= v -> ()
      | _ -> set_gauge into name v)
    (gauges src);
  List.iter
    (fun (key, b) -> merge_local ~into:(series into key) b)
    (merged_series src)

let histograms t = List.map (fun (key, l) -> (key, l.hist)) (merged_series t)

(* Prometheus text exposition of the whole registry. *)
let prometheus t =
  Prom.render ~gauges:(gauges t) ~counters:(counters t)
    ~histograms:(histograms t) ()

(* Shard-labelled exposition: one set per (labels, registry) pair, all
   series of a metric name grouped under one TYPE block. *)
let prometheus_sets sets =
  Prom.render_sets
    (List.map
       (fun (labels, t) ->
         {
           Prom.s_labels = labels;
           s_counters = counters t;
           s_gauges = gauges t;
           s_histograms = histograms t;
         })
       sets)
