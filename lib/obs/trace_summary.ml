module Json = Cdw_util.Json

type row = {
  name : string;
  count : int;
  total_ms : float;
  self_ms : float;
  max_ms : float;
}

type report = {
  rows : row list;
  events : int;
  unbalanced : int;
  wall_ms : float;
  drain_wall_ms : float;
  drain_covered_ms : float;
}

let coverage r =
  if r.drain_wall_ms > 0.0 then r.drain_covered_ms /. r.drain_wall_ms else 0.0

type parsed_event = {
  e_name : string;
  e_ph : char;
  e_ts : float;
  e_pid : int;
  e_tid : int;
  e_dur : float option;  (* "X" complete events only *)
  e_shard : int option;  (* args.shard, as emitted by the shard layer *)
}

let event_of_json json =
  match
    ( Option.bind (Json.member "ph" json) Json.to_text,
      Option.bind (Json.member "name" json) Json.to_text,
      Option.bind (Json.member "ts" json) Json.to_float,
      Option.bind (Json.member "tid" json) Json.to_float )
  with
  | Some ph, Some name, Some ts, Some tid when String.length ph = 1 ->
      let pid =
        match Option.bind (Json.member "pid" json) Json.to_float with
        | Some p -> int_of_float p
        | None -> 1
      in
      let dur = Option.bind (Json.member "dur" json) Json.to_float in
      let shard =
        match Option.bind (Json.member "args" json) (Json.member "shard") with
        | Some (Json.String s) -> int_of_string_opt s
        | Some j -> Option.map int_of_float (Json.to_float j)
        | None -> None
      in
      Some
        {
          e_name = name;
          e_ph = ph.[0];
          e_ts = ts;
          e_pid = pid;
          e_tid = int_of_float tid;
          e_dur = dur;
          e_shard = shard;
        }
  | _ -> None

(* Mutable per-name aggregate. *)
type agg = {
  mutable a_count : int;
  mutable a_total : float;
  mutable a_self : float;
  mutable a_max : float;
}

(* An open span on a (pid, tid) stack. *)
type open_span = {
  o_name : string;
  o_start : float;
  mutable o_children : float;  (* µs spent in direct children *)
}

let of_events events =
  let aggs : (string, agg) Hashtbl.t = Hashtbl.create 32 in
  let agg name =
    match Hashtbl.find_opt aggs name with
    | Some a -> a
    | None ->
        let a =
          { a_count = 0; a_total = 0.0; a_self = 0.0; a_max = neg_infinity }
        in
        Hashtbl.add aggs name a;
        a
  in
  (* Stacks keyed by (pid, tid): a merged multi-process trace reuses
     tids across processes (both sides have a domain 0), so pairing on
     tid alone would interleave two processes' spans. *)
  let stacks : (int * int, open_span list) Hashtbl.t = Hashtbl.create 8 in
  let consumed = ref 0 in
  let unbalanced = ref 0 in
  let first_ts = ref infinity in
  let last_ts = ref neg_infinity in
  let drain_wall = ref 0.0 in
  let drain_covered = ref 0.0 in
  List.iter
    (fun ev ->
      let key = (ev.e_pid, ev.e_tid) in
      match ev.e_ph with
      | 'B' ->
          incr consumed;
          if ev.e_ts < !first_ts then first_ts := ev.e_ts;
          let stack = Option.value ~default:[] (Hashtbl.find_opt stacks key) in
          Hashtbl.replace stacks key
            ({ o_name = ev.e_name; o_start = ev.e_ts; o_children = 0.0 } :: stack)
      | 'E' -> (
          incr consumed;
          if ev.e_ts > !last_ts then last_ts := ev.e_ts;
          match Hashtbl.find_opt stacks key with
          | Some (top :: rest) ->
              Hashtbl.replace stacks key rest;
              let dur = Float.max 0.0 (ev.e_ts -. top.o_start) in
              let self = Float.max 0.0 (dur -. top.o_children) in
              (match rest with
              | parent :: _ -> parent.o_children <- parent.o_children +. dur
              | [] -> ());
              let a = agg top.o_name in
              a.a_count <- a.a_count + 1;
              a.a_total <- a.a_total +. dur;
              a.a_self <- a.a_self +. self;
              if dur > a.a_max then a.a_max <- dur;
              if top.o_name = "engine.drain" then begin
                drain_wall := !drain_wall +. dur;
                drain_covered := !drain_covered +. top.o_children
              end
          | Some [] | None -> incr unbalanced)
      | 'X' ->
          (* Complete events (the flight recorder's format) carry their
             duration inline and no nesting information, so self equals
             total — an over-count when X events nest, accepted because
             the recorder only logs drain-level operations. *)
          incr consumed;
          let dur = Float.max 0.0 (Option.value ~default:0.0 ev.e_dur) in
          if ev.e_ts < !first_ts then first_ts := ev.e_ts;
          if ev.e_ts +. dur > !last_ts then last_ts := ev.e_ts +. dur;
          let a = agg ev.e_name in
          a.a_count <- a.a_count + 1;
          a.a_total <- a.a_total +. dur;
          a.a_self <- a.a_self +. dur;
          if dur > a.a_max then a.a_max <- dur
      | _ -> ())
    events;
  (* Begin events never closed (e.g. the buffer filled mid-span). *)
  Hashtbl.iter (fun _ stack -> unbalanced := !unbalanced + List.length stack) stacks;
  let us_to_ms v = v /. 1000.0 in
  let rows =
    Hashtbl.fold
      (fun name a acc ->
        {
          name;
          count = a.a_count;
          total_ms = us_to_ms a.a_total;
          self_ms = us_to_ms a.a_self;
          max_ms = us_to_ms a.a_max;
        }
        :: acc)
      aggs []
    |> List.sort (fun a b -> compare (b.total_ms, a.name) (a.total_ms, b.name))
  in
  {
    rows;
    events = !consumed;
    unbalanced = !unbalanced;
    wall_ms =
      (if !last_ts > !first_ts then us_to_ms (!last_ts -. !first_ts) else 0.0);
    drain_wall_ms = us_to_ms !drain_wall;
    drain_covered_ms = us_to_ms !drain_covered;
  }

let events_of_json json =
  match json with
  | Json.Array evs -> Ok evs
  | Json.Object _ -> (
      match Option.bind (Json.member "traceEvents" json) Json.to_list with
      | Some evs -> Ok evs
      | None -> Error "no \"traceEvents\" array")
  | _ -> Error "not a trace-event JSON document"

let of_json json =
  Result.map
    (fun evs -> of_events (List.filter_map event_of_json evs))
    (events_of_json json)

let read_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error msg
  | text -> Json.parse text

let of_file path = Result.bind (read_file path) of_json

let pp ppf r =
  Format.fprintf ppf "@[<v>%-28s %9s %12s %12s %12s@,"
    "phase" "count" "total ms" "self ms" "max ms";
  List.iter
    (fun row ->
      Format.fprintf ppf "%-28s %9d %12.2f %12.2f %12.2f@,"
        row.name row.count row.total_ms row.self_ms row.max_ms)
    r.rows;
  Format.fprintf ppf "@,events %d" r.events;
  if r.unbalanced > 0 then Format.fprintf ppf " (%d unbalanced)" r.unbalanced;
  Format.fprintf ppf ", wall %.2f ms@," r.wall_ms;
  if r.drain_wall_ms > 0.0 then
    Format.fprintf ppf
      "drain wall %.2f ms, instrumented phases cover %.2f ms (%.1f%%)@]"
      r.drain_wall_ms r.drain_covered_ms (100.0 *. coverage r)
  else Format.fprintf ppf "no engine.drain span in this trace@]"

(* ---------- Scaling report (sharded drains) ---------- *)

type shard_row = {
  sh_shard : int;
  sh_drains : int;
  sh_drain_ms : float;
  sh_execute_ms : float;
  sh_journal_ms : float;
  sh_sort_ms : float;
  sh_gather_ms : float;
  sh_barrier_ms : float;
  sh_coverage : float;
}

type scaling = {
  sc_shards : shard_row list;
  sc_drains : int;
  sc_wall_ms : float;
  sc_merge_ms : float;
}

(* A closed span: B/E pairs carry their shard on the begin event;
   flight-recorder X events carry duration and shard inline. *)
type closed = { c_name : string; c_dur : float; c_shard : int }

let closed_spans events =
  let stacks : (int * int, parsed_event list) Hashtbl.t = Hashtbl.create 8 in
  let out = ref [] in
  List.iter
    (fun ev ->
      let key = (ev.e_pid, ev.e_tid) in
      match ev.e_ph with
      | 'B' ->
          let st = Option.value ~default:[] (Hashtbl.find_opt stacks key) in
          Hashtbl.replace stacks key (ev :: st)
      | 'E' -> (
          match Hashtbl.find_opt stacks key with
          | Some (b :: rest) ->
              Hashtbl.replace stacks key rest;
              out :=
                {
                  c_name = b.e_name;
                  c_dur = Float.max 0.0 (ev.e_ts -. b.e_ts);
                  c_shard = Option.value ~default:(-1) b.e_shard;
                }
                :: !out
          | Some [] | None -> ())
      | 'X' ->
          out :=
            {
              c_name = ev.e_name;
              c_dur = Float.max 0.0 (Option.value ~default:0.0 ev.e_dur);
              c_shard = Option.value ~default:(-1) ev.e_shard;
            }
            :: !out
      | _ -> ())
    events;
  !out

type shard_acc = {
  mutable x_drains : int;
  mutable x_drain : float;
  mutable x_execute : float;
  mutable x_journal : float;
  mutable x_sort : float;
  mutable x_gather : float;
}

let scaling_of_events events =
  let spans = closed_spans events in
  let wall = ref 0.0 and drains = ref 0 and merge = ref 0.0 in
  let shards : (int, shard_acc) Hashtbl.t = Hashtbl.create 8 in
  let acc shard =
    match Hashtbl.find_opt shards shard with
    | Some a -> a
    | None ->
        let a =
          { x_drains = 0; x_drain = 0.0; x_execute = 0.0; x_journal = 0.0;
            x_sort = 0.0; x_gather = 0.0 }
        in
        Hashtbl.add shards shard a;
        a
  in
  List.iter
    (fun c ->
      match c.c_name with
      | "group.drain" ->
          incr drains;
          wall := !wall +. c.c_dur
      | "group.merge" -> merge := !merge +. c.c_dur
      | "shard.drain" when c.c_shard >= 0 ->
          let a = acc c.c_shard in
          a.x_drains <- a.x_drains + 1;
          a.x_drain <- a.x_drain +. c.c_dur
      | "shard.execute" when c.c_shard >= 0 ->
          let a = acc c.c_shard in
          a.x_execute <- a.x_execute +. c.c_dur
      | "shard.journal" when c.c_shard >= 0 ->
          let a = acc c.c_shard in
          a.x_journal <- a.x_journal +. c.c_dur
      | "shard.sort" when c.c_shard >= 0 ->
          let a = acc c.c_shard in
          a.x_sort <- a.x_sort +. c.c_dur
      | "shard.gather" when c.c_shard >= 0 ->
          let a = acc c.c_shard in
          a.x_gather <- a.x_gather +. c.c_dur
      | _ -> ())
    spans;
  if !drains = 0 then
    Error
      "no drains: no group.drain spans — not a sharded trace (single-engine \
       runs are covered by the plain summary)"
  else if !wall <= 0.0 then
    (* Zero-duration drains (a trace cut mid-run, or a recorder that
       captured only begin events) have no wall to attribute — every
       percentage below would be 0/0. *)
    Error
      (Printf.sprintf
         "no drains: %d group.drain span(s) carry zero total duration — \
          nothing to attribute"
         !drains)
  else begin
    let us_to_ms v = v /. 1000.0 in
    let rows =
      Hashtbl.fold
        (fun shard a rows ->
          (* A shard's barrier time is the group wall it sat through
             minus its own drain work and the caller-side merge: every
             shard participates in every group drain, so the residue is
             time spent parked at the gather barrier waiting for the
             slowest sibling. *)
          let barrier =
            Float.max 0.0 (!wall -. a.x_drain -. !merge)
          in
          let attributed =
            a.x_execute +. a.x_journal +. a.x_sort +. a.x_gather
          in
          let coverage =
            if a.x_drain > 0.0 then Float.min 1.0 (attributed /. a.x_drain)
            else 0.0
          in
          {
            sh_shard = shard;
            sh_drains = a.x_drains;
            sh_drain_ms = us_to_ms a.x_drain;
            sh_execute_ms = us_to_ms a.x_execute;
            sh_journal_ms = us_to_ms a.x_journal;
            sh_sort_ms = us_to_ms a.x_sort;
            sh_gather_ms = us_to_ms a.x_gather;
            sh_barrier_ms = us_to_ms barrier;
            sh_coverage = coverage;
          }
          :: rows)
        shards []
      |> List.sort (fun a b -> compare a.sh_shard b.sh_shard)
    in
    Ok
      {
        sc_shards = rows;
        sc_drains = !drains;
        sc_wall_ms = us_to_ms !wall;
        sc_merge_ms = us_to_ms !merge;
      }
  end

let scaling_of_json json =
  Result.bind (events_of_json json) (fun evs ->
      scaling_of_events (List.filter_map event_of_json evs))

let scaling_of_file path = Result.bind (read_file path) scaling_of_json

let pp_scaling ppf s =
  Format.fprintf ppf
    "@[<v>group drains %d, drain wall %.2f ms, merge %.2f ms@,@,"
    s.sc_drains s.sc_wall_ms s.sc_merge_ms;
  Format.fprintf ppf "%-6s %7s %11s %11s %11s %11s %11s %11s %9s@,"
    "shard" "drains" "drain ms" "execute" "journal" "sort" "gather"
    "barrier" "coverage";
  List.iter
    (fun r ->
      Format.fprintf ppf
        "%-6d %7d %11.2f %11.2f %11.2f %11.2f %11.2f %11.2f %8.1f%%@,"
        r.sh_shard r.sh_drains r.sh_drain_ms r.sh_execute_ms r.sh_journal_ms
        r.sh_sort_ms r.sh_gather_ms r.sh_barrier_ms (100.0 *. r.sh_coverage))
    s.sc_shards;
  Format.fprintf ppf "@]"
