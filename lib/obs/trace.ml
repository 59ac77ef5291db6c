module Json = Cdw_util.Json

type event = {
  name : string;
  ph : char;  (* 'B' or 'E' *)
  ts : float;  (* µs since the trace epoch *)
  sid : int;  (* span id; unique across domains *)
  parent : int;  (* parent span id, 0 at the root *)
  args : (string * string) list;
}

(* One buffer per domain, reached through DLS: recording is plain
   (unsynchronized) stores into domain-private state, so tracing adds no
   inter-domain contention. The global registry is only touched when a
   domain records its first span, and by [reset]/[export] — which the
   contract restricts to quiescent moments. *)
type buffer = {
  mutable tid : int;  (* Domain.self of the owner, or of the last one *)
  mutable live : bool;  (* false once the owner exited *)
  mutable events : event array;
  mutable len : int;
  mutable dropped : int;
  mutable last_ts : float;  (* monotonicity clamp *)
  mutable stack : (int * bool) list;  (* (span id, begin recorded) *)
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

(* A domain takes over the buffer of one that exited, once that holds
   no events (never traced, or emptied by [reset]), before it allocates
   a new one: joined pool helpers and shard workers leave no buffer
   behind unless it holds events an export still needs. *)
let fresh_buffer () =
  let tid = (Domain.self () :> int) in
  Mutex.lock registry_lock;
  let b =
    match List.find_opt (fun b -> (not b.live) && b.len = 0) !registry with
    | Some b ->
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

let now_us b =
  let t = (Unix.gettimeofday () -. Atomic.get epoch) *. 1e6 in
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

let begin_span b name args parent =
  let sid = Atomic.fetch_and_add next_sid 1 in
  let parent =
    match parent with
    | Some p -> p
    | None -> ( match b.stack with (p, _) :: _ -> p | [] -> 0)
  in
  let recorded = b.len < Atomic.get capacity in
  if recorded then push b { name; ph = 'B'; ts = now_us b; sid; parent; args }
  else b.dropped <- b.dropped + 1;
  b.stack <- (sid, recorded) :: b.stack

let end_span b name =
  match b.stack with
  | [] -> ()  (* tracing was toggled mid-span; nothing to close *)
  | (sid, recorded) :: rest ->
      b.stack <- rest;
      if recorded then
        push b { name; ph = 'E'; ts = now_us b; sid; parent = 0; args = [] }

let span ?(args = []) ?parent name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let b = Domain.DLS.get key in
    begin_span b name args parent;
    Fun.protect ~finally:(fun () -> end_span b name) f
  end

let current_span () =
  if not (Atomic.get enabled_flag) then 0
  else
    match (Domain.DLS.get key).stack with (sid, _) :: _ -> sid | [] -> 0

let prewarm () = ignore (Domain.DLS.get key : buffer)

let buffers () =
  Mutex.lock registry_lock;
  let bs = !registry in
  Mutex.unlock registry_lock;
  bs

let recorded_events () =
  List.fold_left (fun acc b -> acc + b.len) 0 (buffers ())

let buffer_count () = List.length (buffers ())

let dropped () = List.fold_left (fun acc b -> acc + b.dropped) 0 (buffers ())

let pid = float_of_int (Unix.getpid ())

let event_json ~tid ev =
  let base =
    [
      ("name", Json.String ev.name);
      ("cat", Json.String "cdw");
      ("ph", Json.String (String.make 1 ev.ph));
      ("ts", Json.Number ev.ts);
      ("pid", Json.Number pid);
      ("tid", Json.Number (float_of_int tid));
    ]
  in
  if ev.ph <> 'B' then Json.Object base
  else
    let args =
      ("id", Json.String (string_of_int ev.sid))
      :: ("parent", Json.String (string_of_int ev.parent))
      :: List.map (fun (k, v) -> (k, Json.String v)) ev.args
    in
    Json.Object (base @ [ ("args", Json.Object args) ])

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
        List.init b.len (fun i -> event_json ~tid:b.tid b.events.(i)))
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

let write path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (Json.to_string ~pretty:false (export ()));
      output_char oc '\n')
