module Json = Cdw_util.Json

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

let counter_key = function
  | Busy -> "domain.busy_us"
  | Idle -> "domain.idle_us"
  | Barrier -> "domain.barrier_us"
  | Sort -> "domain.sort_us"
  | Journal -> "domain.journal_us"
  | Execute -> "domain.execute_us"
  | Gather -> "domain.gather_us"
  | Journal_lag -> "domain.journal_lag_us"
  | Drains -> "domain.drains"
  | Items -> "domain.items"

let gauge_key = function
  | Journal_lag_peak -> "domain.journal_lag_peak_us"
  | Inbox_depth_last -> "domain.inbox_depth_last"
  | Inbox_depth_peak -> "domain.inbox_depth_peak"

let declare m =
  List.iter
    (fun c -> Metrics.incr ~by:0 m (counter_key c))
    [ Busy; Idle; Barrier; Sort; Journal; Execute; Gather; Journal_lag; Drains; Items ];
  List.iter
    (fun g -> Metrics.set_gauge m (gauge_key g) 0.0)
    [ Journal_lag_peak; Inbox_depth_last; Inbox_depth_peak ]

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

let stats ~shard m =
  let c k = Metrics.counter m (counter_key k) in
  let g k =
    match Metrics.gauge m (gauge_key k) with
    | Some v -> int_of_float v
    | None -> 0
  in
  {
    s_shard = shard;
    s_busy_us = c Busy;
    s_idle_us = c Idle;
    s_barrier_us = c Barrier;
    s_sort_us = c Sort;
    s_journal_us = c Journal;
    s_execute_us = c Execute;
    s_gather_us = c Gather;
    s_journal_lag_us = c Journal_lag;
    s_journal_lag_peak_us = g Journal_lag_peak;
    s_drains = c Drains;
    s_items = c Items;
    s_inbox_depth_last = g Inbox_depth_last;
    s_inbox_depth_peak = g Inbox_depth_peak;
  }

(* The JSON field of a series: its registry name without "domain.". *)
let field key =
  let p = String.length "domain." in
  String.sub key p (String.length key - p)

let stats_json s =
  let n v = Json.Number (float_of_int v) in
  let c k v = (field (counter_key k), n v) in
  let g k v = (field (gauge_key k), n v) in
  Json.Object
    [
      ("shard", n s.s_shard);
      c Busy s.s_busy_us;
      c Idle s.s_idle_us;
      c Barrier s.s_barrier_us;
      c Sort s.s_sort_us;
      c Journal s.s_journal_us;
      c Execute s.s_execute_us;
      c Gather s.s_gather_us;
      c Journal_lag s.s_journal_lag_us;
      g Journal_lag_peak s.s_journal_lag_peak_us;
      c Drains s.s_drains;
      c Items s.s_items;
      g Inbox_depth_last s.s_inbox_depth_last;
      g Inbox_depth_peak s.s_inbox_depth_peak;
    ]

let barrier_fraction stats_list =
  let busy =
    List.fold_left (fun acc s -> acc + s.s_busy_us) 0 stats_list
  in
  let barrier =
    List.fold_left (fun acc s -> acc + s.s_barrier_us) 0 stats_list
  in
  if busy + barrier = 0 then 0.0
  else float_of_int barrier /. float_of_int (busy + barrier)
