module Json = Cdw_util.Json

(* One preallocated slot per entry: recording mutates fields in place,
   so the steady state allocates only the two boxed floats (the record
   is not float-only). Entries are drain-granularity — a handful per
   serving drain — so that is noise. *)
type entry = {
  mutable e_name : string;
  mutable e_shard : int;  (* -1 = no shard *)
  mutable e_t0 : float;  (* span start, µs since the Unix epoch *)
  mutable e_dur : float;  (* µs *)
}

(* Per-domain ring, reached through DLS exactly like [Trace]'s buffers:
   the owning domain records without synchronization; a dump reads the
   rings racily (a torn in-progress slot is acceptable in a diagnostic
   artifact — the dump is best-effort by design, it may run from a
   signal handler while drains are in flight). *)
type ring = {
  r_tid : int;
  slots : entry array;
  mutable next : int;  (* next slot to overwrite *)
  mutable total : int;  (* entries ever recorded by this domain *)
}

let capacity = Atomic.make 4096
let registry : ring list ref = ref []
let registry_lock = Mutex.create ()

let fresh_ring () =
  let r =
    {
      r_tid = (Domain.self () :> int);
      slots =
        Array.init (Atomic.get capacity) (fun _ ->
            { e_name = ""; e_shard = -1; e_t0 = 0.0; e_dur = 0.0 });
      next = 0;
      total = 0;
    }
  in
  Mutex.lock registry_lock;
  registry := r :: !registry;
  Mutex.unlock registry_lock;
  r

let key : ring Domain.DLS.key = Domain.DLS.new_key fresh_ring

let prewarm () = ignore (Domain.DLS.get key : ring)

let record ?(shard = -1) name ~t0_us ~dur_us =
  let r = Domain.DLS.get key in
  let e = r.slots.(r.next) in
  e.e_name <- name;
  e.e_shard <- shard;
  e.e_t0 <- t0_us;
  e.e_dur <- dur_us;
  r.next <- (r.next + 1) mod Array.length r.slots;
  r.total <- r.total + 1

let rings () =
  Mutex.lock registry_lock;
  let rs = !registry in
  Mutex.unlock registry_lock;
  rs

let recorded () = List.fold_left (fun acc r -> acc + r.total) 0 (rings ())

(* A context thunk dumped alongside the rings — the serving front end
   hangs its counters here (inbox depths, per-domain accounting), so a
   post-mortem dump carries state as well as recent spans. Must only
   read atomics / immutable data: it runs from signal handlers. *)
let context : (unit -> Json.t) option ref = ref None

let set_context f =
  Mutex.lock registry_lock;
  context := f;
  Mutex.unlock registry_lock

let entries r =
  (* Chronological: [next .. end) then [0 .. next) once wrapped. *)
  let n = Array.length r.slots in
  let start = if r.total >= n then r.next else 0 in
  let count = min r.total n in
  List.init count (fun i -> r.slots.((start + i) mod n))
  |> List.filter (fun e -> e.e_name <> "")

let export () =
  let rs = List.sort (fun a b -> compare a.r_tid b.r_tid) (rings ()) in
  let live = List.concat_map entries rs in
  let base =
    List.fold_left (fun acc e -> Float.min acc e.e_t0) infinity live
  in
  let base = if base = infinity then 0.0 else base in
  let pid = float_of_int (Unix.getpid ()) in
  let meta =
    List.filter_map
      (fun r ->
        if entries r = [] then None
        else
          Some
            (Json.Object
               [
                 ("name", Json.String "thread_name");
                 ("ph", Json.String "M");
                 ("pid", Json.Number pid);
                 ("tid", Json.Number (float_of_int r.r_tid));
                 ( "args",
                   Json.Object
                     [
                       ( "name",
                         Json.String (Printf.sprintf "domain-%d" r.r_tid) );
                     ] );
               ]))
      rs
  in
  let events =
    List.concat_map
      (fun r ->
        List.map
          (fun e ->
            let args =
              if e.e_shard < 0 then []
              else
                [
                  ( "args",
                    Json.Object
                      [ ("shard", Json.String (string_of_int e.e_shard)) ] );
                ]
            in
            Json.Object
              ([
                 ("name", Json.String e.e_name);
                 ("cat", Json.String "flight");
                 ("ph", Json.String "X");
                 ("ts", Json.Number (e.e_t0 -. base));
                 ("dur", Json.Number e.e_dur);
                 ("pid", Json.Number pid);
                 ("tid", Json.Number (float_of_int r.r_tid));
               ]
              @ args))
          (entries r))
      rs
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
      ("traceEvents", Json.Array (meta @ events));
      ("displayTimeUnit", Json.String "ms");
      ("traceEpochUs", Json.Number base);
      ( "flight",
        Json.Object
          ([
             ("recorded", Json.Number (float_of_int (recorded ())));
             ( "capacity_per_domain",
               Json.Number (float_of_int (Atomic.get capacity)) );
           ]
          @ ctx) );
    ]

let write path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (Json.to_string ~pretty:false (export ()));
      output_char oc '\n')

let dump_path = ref None

let installed () =
  Mutex.lock registry_lock;
  let p = !dump_path in
  Mutex.unlock registry_lock;
  p

let fatal_dump () =
  match installed () with
  | None -> ()
  | Some path -> ( try write path with _ -> ())

let install ~path =
  Mutex.lock registry_lock;
  dump_path := Some path;
  Mutex.unlock registry_lock;
  (* OCaml signal handlers run at safe points on the main execution
     flow, not in asynchronous C context, so writing a file here is
     fine — the same pattern as the CLI's SIGINT flush. *)
  try
    Sys.set_signal Sys.sigusr1
      (Sys.Signal_handle (fun _ -> try write path with _ -> ()))
  with Invalid_argument _ -> ()
