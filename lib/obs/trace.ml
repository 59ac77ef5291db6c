module Json = Cdw_util.Json

type event = {
  name : string;
  ph : char;  (* 'B' or 'E' *)
  ts : float;  (* µs since the trace epoch *)
  sid : int;  (* span id; unique across domains *)
  parent : int;  (* parent span id, 0 at the root *)
  args : (string * string) list;
}

(* The flight ring: the last [ring_capacity] coarse spans a domain
   completed, recorded whether or not tracing is on. Parallel arrays,
   so an entry is four stores into preallocated slots and allocates
   nothing. A dump reads the rings racily (a torn in-progress slot is
   acceptable in a diagnostic artifact: the dump is best-effort by
   design, and may run from a signal handler while drains are in
   flight). *)
type ring = {
  names : string array;  (* "" = empty slot *)
  shards : int array;  (* -1 = no shard *)
  starts : Float.Array.t;  (* span start, µs since the Unix epoch *)
  durs : Float.Array.t;  (* µs *)
}

let ring_capacity = 4096

let no_ring =
  {
    names = [||];
    shards = [||];
    starts = Float.Array.create 0;
    durs = Float.Array.create 0;
  }

(* One buffer per domain, reached through DLS: recording is plain
   (unsynchronized) stores into domain-private state, so tracing adds no
   inter-domain contention. The global registry is only touched when a
   domain first needs its buffer, and by [reset]/[export] — which the
   contract restricts to quiescent moments — and by flight dumps. *)
type buffer = {
  mutable tid : int;  (* Domain.self of the owner, or of the last one *)
  mutable live : bool;  (* false once the owner exited *)
  mutable events : event array;
  mutable len : int;
  mutable dropped : int;
  mutable last_ts : float;  (* monotonicity clamp *)
  mutable stack : (int * bool) list;  (* (span id, begin recorded) *)
  mutable ring : ring;  (* [no_ring] until the domain's first entry *)
  mutable next : int;  (* next ring slot to overwrite *)
  mutable total : int;  (* ring entries ever recorded into this buffer *)
}

let enabled_flag = Atomic.make false
let capacity = Atomic.make 262_144
let epoch = Atomic.make 0.0

(* Span ids must stay unique across *processes*: a wire client sends its
   current span id to the server, whose own spans parent under it, and
   the two exports are later merged into one timeline. Seeding the
   counter with the pid keeps the two id streams disjoint (2^40 spans
   per process before wrap — far past any buffer capacity). *)
let next_sid = Atomic.make (((Unix.getpid () land 0xFFFF) lsl 40) lor 1)
let registry : buffer list ref = ref []
let registry_lock = Mutex.create ()

(* The one takeover rule (see the interface): a domain takes over the
   buffer of one that exited once it holds no trace events, clearing
   its flight ring, before it allocates a new one. *)
let fresh_buffer () =
  let tid = (Domain.self () :> int) in
  Mutex.lock registry_lock;
  let b =
    match List.find_opt (fun b -> (not b.live) && b.len = 0) !registry with
    | Some b ->
        Array.fill b.ring.names 0 (Array.length b.ring.names) "";
        b.tid <- tid;
        b.live <- true;
        b
    | None ->
        let b =
          {
            tid;
            live = true;
            events = Array.make 1024 { name = ""; ph = 'B'; ts = 0.0; sid = 0; parent = 0; args = [] };
            len = 0;
            dropped = 0;
            last_ts = 0.0;
            stack = [];
            ring = no_ring;
            next = 0;
            total = 0;
          }
        in
        registry := b :: !registry;
        b
  in
  Mutex.unlock registry_lock;
  Domain.at_exit (fun () ->
      Mutex.lock registry_lock;
      b.live <- false;
      Mutex.unlock registry_lock);
  b

let key : buffer Domain.DLS.key = Domain.DLS.new_key fresh_buffer

let set_enabled on = Atomic.set enabled_flag on
let enabled () = Atomic.get enabled_flag
let set_capacity n = Atomic.set capacity (max 16 n)

let reset () =
  Atomic.set epoch (Unix.gettimeofday ());
  Mutex.lock registry_lock;
  List.iter
    (fun b ->
      b.len <- 0;
      b.dropped <- 0;
      b.last_ts <- 0.0;
      b.stack <- [])
    !registry;
  Mutex.unlock registry_lock

(* [at] (seconds since the Unix epoch) as a trace timestamp: µs since
   the trace epoch, clamped monotone per domain. *)
let ts_of b at =
  let t = (at -. Atomic.get epoch) *. 1e6 in
  let t = if t > b.last_ts then t else b.last_ts in
  b.last_ts <- t;
  t

(* End events are always recorded for spans whose begin was recorded, so
   the buffer may exceed the capacity by the open-span depth: balanced
   begin/end pairs are worth a little slack. *)
let push b ev =
  if b.len = Array.length b.events then begin
    let grown =
      Array.make (2 * Array.length b.events)
        { name = ""; ph = 'B'; ts = 0.0; sid = 0; parent = 0; args = [] }
    in
    Array.blit b.events 0 grown 0 b.len;
    b.events <- grown
  end;
  b.events.(b.len) <- ev;
  b.len <- b.len + 1

let begin_span b name args parent at =
  let sid = Atomic.fetch_and_add next_sid 1 in
  let parent =
    match parent with
    | Some p -> p
    | None -> ( match b.stack with (p, _) :: _ -> p | [] -> 0)
  in
  let recorded = b.len < Atomic.get capacity in
  if recorded then
    push b { name; ph = 'B'; ts = ts_of b at; sid; parent; args }
  else b.dropped <- b.dropped + 1;
  b.stack <- (sid, recorded) :: b.stack

let end_span b name at =
  match b.stack with
  | [] -> ()  (* tracing was toggled mid-span; nothing to close *)
  | (sid, recorded) :: rest ->
      b.stack <- rest;
      if recorded then
        push b
          { name; ph = 'E'; ts = ts_of b at; sid; parent = 0; args = [] }

let span ?(args = []) ?parent name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let b = Domain.DLS.get key in
    begin_span b name args parent (Unix.gettimeofday ());
    Fun.protect ~finally:(fun () -> end_span b name (Unix.gettimeofday ())) f
  end

(* ---------------------------------------------------------------- *)
(* Flight ring                                                        *)

let ensure_ring b =
  if b.ring == no_ring then
    b.ring <-
      {
        names = Array.make ring_capacity "";
        shards = Array.make ring_capacity (-1);
        starts = Float.Array.make ring_capacity 0.0;
        durs = Float.Array.make ring_capacity 0.0;
      }

(* One ring entry, overwriting the oldest once the ring is full. *)
let record b shard name ~t0_us ~dur_us =
  ensure_ring b;
  let r = b.ring and i = b.next in
  r.names.(i) <- name;
  r.shards.(i) <- shard;
  Float.Array.set r.starts i t0_us;
  Float.Array.set r.durs i dur_us;
  b.next <- (i + 1) mod ring_capacity;
  b.total <- b.total + 1

let timed ?(args = []) ?parent ?(shard = -1) name k f =
  let b = Domain.DLS.get key in
  let traced = Atomic.get enabled_flag in
  let t0 = Unix.gettimeofday () in
  if traced then begin
    let args =
      if shard < 0 then args else ("shard", string_of_int shard) :: args
    in
    begin_span b name args parent t0
  end;
  Fun.protect
    ~finally:(fun () ->
      let t1 = Unix.gettimeofday () in
      if traced then end_span b name t1;
      let dur_us = (t1 -. t0) *. 1e6 in
      record b shard name ~t0_us:(t0 *. 1e6) ~dur_us;
      k dur_us)
    f

let current_span () =
  if not (Atomic.get enabled_flag) then 0
  else
    match (Domain.DLS.get key).stack with (sid, _) :: _ -> sid | [] -> 0

let prewarm () = ensure_ring (Domain.DLS.get key)

let buffers () =
  Mutex.lock registry_lock;
  let bs = !registry in
  Mutex.unlock registry_lock;
  bs

let recorded_events () =
  List.fold_left (fun acc b -> acc + b.len) 0 (buffers ())

let buffer_count () = List.length (buffers ())
let flight_entries () =
  List.fold_left (fun acc b -> acc + b.total) 0 (buffers ())

let dropped () = List.fold_left (fun acc b -> acc + b.dropped) 0 (buffers ())

let pid = float_of_int (Unix.getpid ())

(* The one trace-event writer, for span begin/end events and flight
   entries alike: [dur] only for a complete ("X") event, [args] only
   when there are some. *)
let event_json ~cat ~ph ~ts ?dur ~tid name args =
  Json.Object
    ([
       ("name", Json.String name);
       ("cat", Json.String cat);
       ("ph", Json.String ph);
       ("ts", Json.Number ts);
     ]
    @ (match dur with Some d -> [ ("dur", Json.Number d) ] | None -> [])
    @ [ ("pid", Json.Number pid); ("tid", Json.Number (float_of_int tid)) ]
    @
    match args with
    | [] -> []
    | _ ->
        [
          ( "args",
            Json.Object (List.map (fun (k, v) -> (k, Json.String v)) args) );
        ])

let span_event_json ~tid ev =
  let args =
    if ev.ph <> 'B' then []
    else
      ("id", string_of_int ev.sid)
      :: ("parent", string_of_int ev.parent)
      :: ev.args
  in
  event_json ~cat:"cdw" ~ph:(String.make 1 ev.ph) ~ts:ev.ts ~tid ev.name args

let thread_name_json tid =
  Json.Object
    [
      ("name", Json.String "thread_name");
      ("ph", Json.String "M");
      ("pid", Json.Number pid);
      ("tid", Json.Number (float_of_int tid));
      ( "args",
        Json.Object [ ("name", Json.String (Printf.sprintf "domain-%d" tid)) ]
      );
    ]

let process_name_json label =
  Json.Object
    [
      ("name", Json.String "process_name");
      ("ph", Json.String "M");
      ("pid", Json.Number pid);
      ("tid", Json.Number 0.0);
      ("args", Json.Object [ ("name", Json.String label) ]);
    ]

let process_label = Atomic.make "cdw"
let set_process_label l = Atomic.set process_label l

let export () =
  let bs =
    List.sort (fun a b -> compare a.tid b.tid) (buffers ())
    |> List.filter (fun b -> b.len > 0)
  in
  let metadata =
    process_name_json (Atomic.get process_label)
    :: List.map (fun b -> thread_name_json b.tid) bs
  in
  let events =
    List.concat_map
      (fun b ->
        List.init b.len (fun i -> span_event_json ~tid:b.tid b.events.(i)))
      bs
  in
  Json.Object
    [
      ("traceEvents", Json.Array (metadata @ events));
      ("displayTimeUnit", Json.String "ms");
      (* Absolute anchor of ts = 0 (µs since the Unix epoch): what lets
         two processes' exports be shifted onto one clock. *)
      ("traceEpochUs", Json.Number (Atomic.get epoch *. 1e6));
    ]

(* Merge another process's export into ours: its timestamps are
   relative to *its* trace epoch, so shift them by the epoch delta onto
   our clock, then concatenate. Events without a [ts] (metadata) pass
   through unshifted. Distinct pids keep the two processes as separate
   tracks in Perfetto. *)
let merge_exports ours theirs =
  let epoch_us j =
    match Option.bind (Json.member "traceEpochUs" j) Json.to_float with
    | Some e -> e
    | None -> 0.0
  in
  let events j =
    match Option.bind (Json.member "traceEvents" j) Json.to_list with
    | Some evs -> evs
    | None -> []
  in
  let shift = epoch_us theirs -. epoch_us ours in
  let shifted =
    List.map
      (fun ev ->
        match (ev, Option.bind (Json.member "ts" ev) Json.to_float) with
        | Json.Object fields, Some ts ->
            Json.Object
              (List.map
                 (fun (k, v) ->
                   if k = "ts" then (k, Json.Number (ts +. shift)) else (k, v))
                 fields)
        | _ -> ev)
      (events theirs)
  in
  Json.Object
    [
      ("traceEvents", Json.Array (events ours @ shifted));
      ("displayTimeUnit", Json.String "ms");
      ("traceEpochUs", Json.Number (epoch_us ours));
    ]

let write_json path json =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (Json.to_string ~pretty:false json);
      output_char oc '\n')

let write path = write_json path (export ())

(* ---------------------------------------------------------------- *)
(* Flight dumps                                                       *)

(* A context thunk dumped alongside the rings — the serving front end
   hangs its counters here (shard count, per-domain accounting), so a
   post-mortem dump carries state as well as recent spans. Must only
   read atomics / immutable data: it runs from signal handlers. *)
let context : (unit -> Json.t) option ref = ref None

let set_context f =
  Mutex.lock registry_lock;
  context := f;
  Mutex.unlock registry_lock

(* A buffer's ring entries, oldest first: [next .. end) then
   [0 .. next) once wrapped, empty slots left out. *)
let ring_entries b =
  let r = b.ring in
  let n = Array.length r.names in
  let start = if b.total >= n then b.next else 0 in
  List.init (min b.total n) (fun i -> (start + i) mod n)
  |> List.filter (fun i -> r.names.(i) <> "")

let flight_export () =
  let bs =
    List.sort (fun a b -> compare a.tid b.tid) (buffers ())
    |> List.filter_map (fun b ->
           match ring_entries b with [] -> None | es -> Some (b, es))
  in
  let base =
    List.fold_left
      (fun acc (b, es) ->
        List.fold_left
          (fun acc i -> Float.min acc (Float.Array.get b.ring.starts i))
          acc es)
      infinity bs
  in
  let base = if base = infinity then 0.0 else base in
  let events =
    List.concat_map
      (fun (b, es) ->
        let r = b.ring in
        List.map
          (fun i ->
            event_json ~cat:"flight" ~ph:"X"
              ~ts:(Float.Array.get r.starts i -. base)
              ~dur:(Float.Array.get r.durs i) ~tid:b.tid r.names.(i)
              (if r.shards.(i) < 0 then []
               else [ ("shard", string_of_int r.shards.(i)) ]))
          es)
      bs
  in
  let ctx =
    Mutex.lock registry_lock;
    let c = !context in
    Mutex.unlock registry_lock;
    match c with
    | None -> []
    | Some f -> ( try [ ("context", f ()) ] with _ -> [])
  in
  Json.Object
    [
      ( "traceEvents",
        Json.Array (List.map (fun (b, _) -> thread_name_json b.tid) bs @ events)
      );
      ("displayTimeUnit", Json.String "ms");
      ("traceEpochUs", Json.Number base);
      ( "flight",
        Json.Object
          ([
             ("recorded", Json.Number (float_of_int (flight_entries ())));
             ("capacity_per_domain", Json.Number (float_of_int ring_capacity));
           ]
          @ ctx) );
    ]

let flight_write path = write_json path (flight_export ())
let dump_path = ref None

let installed () =
  Mutex.lock registry_lock;
  let p = !dump_path in
  Mutex.unlock registry_lock;
  p

let fatal_dump () =
  match installed () with
  | None -> ()
  | Some path -> ( try flight_write path with _ -> ())

let install ~path =
  Mutex.lock registry_lock;
  dump_path := Some path;
  Mutex.unlock registry_lock;
  (* OCaml signal handlers run at safe points on the main execution
     flow, not in asynchronous C context, so writing a file here is
     fine — the same pattern as the CLI's SIGINT flush. *)
  try
    Sys.set_signal Sys.sigusr1
      (Sys.Signal_handle (fun _ -> try flight_write path with _ -> ()))
  with Invalid_argument _ -> ()
