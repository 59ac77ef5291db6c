module Algorithms = Cdw_core.Algorithms
module Engine = Cdw_engine.Engine
module Json = Cdw_util.Json
module Metrics = Cdw_engine.Metrics
module Serialize = Cdw_core.Serialize
module Serving = Cdw_shard.Serving
module Trace = Cdw_obs.Trace
module Flight = Cdw_obs.Flight

type t = {
  serving : Serving.t;
  listen_fd : Unix.file_descr;
  addr : Unix.sockaddr;
  metrics : Metrics.t;  (* net.* counters; thread-safe registry *)
  drain_m : Mutex.t;
      (* serializes Drain ops across connections: each drain swaps the
         pending queue and streams its replies, and interleaving two on
         one serving value would split one client's batch across two
         reply streams *)
  m : Mutex.t;  (* guards [conns], [threads], [stopped] *)
  mutable conns : Unix.file_descr list;
  mutable threads : Thread.t list;
  mutable stopped : bool;
  mutable accept_thread : Thread.t option;
}

let metrics t = t.metrics
let sockaddr t = t.addr

let with_lock t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let op_name = function
  | Wire.Hello -> "hello"
  | Wire.Submit _ -> "submit"
  | Wire.Drain -> "drain"
  | Wire.Forget _ -> "forget"
  | Wire.Metrics -> "metrics"
  | Wire.Prom -> "prom"
  | Wire.Ping -> "ping"
  | Wire.Trace_req -> "trace"
  | Wire.Epoch_install _ -> "epoch-install"
  | Wire.Epoch_query -> "epoch"

(* One path for every live epoch install — the wire opcode and the
   SIGHUP file reload in [cdw serve] both land here. Under the drain
   mutex, like Drain itself: a migration is a drain-boundary
   operation, and interleaving one with a streaming drain would
   migrate half a batch. *)
let install_epoch t wf =
  Mutex.lock t.drain_m;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.drain_m)
    (fun () ->
      match Serving.migrate t.serving wf with
      | m ->
          Metrics.incr t.metrics "net.epoch.installs";
          Ok m
      | exception (Invalid_argument msg | Failure msg) ->
          Metrics.incr t.metrics "net.epoch.rejected";
          Error msg)

let hello_reply t =
  Wire.Hello_r
    {
      Wire.h_algorithm = Algorithms.to_string (Serving.algorithm t.serving);
      h_seed = Serving.seed t.serving;
      h_shards = Serving.shards t.serving;
      h_workflow = Serialize.to_string (Serving.base t.serving);
    }

(* One request, one (or, for Drain, 1+n) reply frames. Serving-layer
   rejections — journal refusing an oversized record, unknown
   algorithm states — come back as framed errors; they never tear the
   connection down. *)
let serve_one t w ~trace request =
  Metrics.incr t.metrics "net.requests";
  match request with
  | Wire.Trace_req ->
      (* Answered outside any span: the export must not carry an
         unbalanced begin event for the very request that fetched it.
         Best-effort under load — the contract asks callers to fetch
         after their traced work quiesced. *)
      let text =
        if Trace.enabled () then
          Json.to_string ~pretty:false (Trace.export ())
        else ""
      in
      Wire.write_reply w (Wire.Trace_r text)
  | request ->
  (* A non-zero wire trace id is the client's span: parenting this
     request's span under it stitches the two processes' traces. *)
  Trace.span "net.request"
    ?parent:(if trace = 0 then None else Some trace)
    ~args:[ ("op", op_name request) ]
    (fun () ->
      match request with
      | Wire.Trace_req -> assert false (* handled above *)
      | Wire.Hello -> Wire.write_reply w (hello_reply t)
      | Wire.Submit { user; request } -> (
          match Serving.submit t.serving ~user request with
          | () -> Wire.write_reply w Wire.Ack
          | exception (Invalid_argument msg | Failure msg) ->
              Metrics.incr t.metrics "net.submit.rejected";
              Wire.write_reply w (Wire.Error_r msg))
      | Wire.Drain ->
          Mutex.lock t.drain_m;
          Fun.protect
            ~finally:(fun () -> Mutex.unlock t.drain_m)
            (fun () ->
              let replies = Serving.drain t.serving in
              Wire.write_reply w (Wire.Drain_r (List.length replies));
              List.iter (fun r -> Wire.write_reply w (Wire.Reply_r r)) replies)
      | Wire.Forget user ->
          Serving.forget t.serving user;
          Wire.write_reply w Wire.Ack
      | Wire.Metrics ->
          let json =
            Json.Object
              [
                ("serving", Serving.metrics_json t.serving);
                ("net", Metrics.to_json t.metrics);
              ]
          in
          Wire.write_reply w (Wire.Metrics_r (Json.to_string json))
      | Wire.Prom ->
          Wire.write_reply w
            (Wire.Prom_r
               (Serving.prometheus t.serving ^ Metrics.prometheus t.metrics))
      | Wire.Ping -> Wire.write_reply w Wire.Pong
      | Wire.Epoch_install text -> (
          match Serialize.parse text with
          | Error msg ->
              Metrics.incr t.metrics "net.epoch.rejected";
              Wire.write_reply w (Wire.Error_r msg)
          | Ok (wf, _) -> (
              match install_epoch t wf with
              | Ok m ->
                  Wire.write_reply w
                    (Wire.Epoch_installed_r
                       {
                         Wire.e_epoch = m.Engine.m_epoch;
                         e_recomputed = m.Engine.m_recomputed;
                         e_remapped = 0;
                         e_dropped = m.Engine.m_dropped_pairs;
                       })
              | Error msg -> Wire.write_reply w (Wire.Error_r msg)))
      | Wire.Epoch_query ->
          Wire.write_reply w (Wire.Epoch_r (Serving.epoch t.serving)))

(* One connection's buffers, and the I/O totals last added to the
   net.* counters. *)
type conn = {
  fd : Unix.file_descr;
  r : Wire.reader;
  w : Wire.writer;
  mutable published : Wire.stats * Wire.stats;
}

let publish t c =
  let r = Wire.reader_stats c.r and w = Wire.writer_stats c.w in
  let r0, w0 = c.published in
  let bump key now before =
    if now > before then Metrics.incr ~by:(now - before) t.metrics key
  in
  bump "net.reads" r.Wire.syscalls r0.Wire.syscalls;
  bump "net.frames.in" r.Wire.frames r0.Wire.frames;
  bump "net.writes" w.Wire.syscalls w0.Wire.syscalls;
  bump "net.frames.out" w.Wire.frames w0.Wire.frames;
  c.published <- (r, w)

let flush_replies t c =
  Wire.flush c.w;
  publish t c

(* Whoever removes an fd from [t.conns] owns closing it — the conn
   thread on a normal or damaged exit, [stop] during shutdown. The
   under-lock removal makes that exclusive, so an fd is never closed
   twice (double-close could hit an unrelated reused descriptor). *)
let drop_conn t c =
  publish t c;
  let fd = c.fd in
  let mine =
    with_lock t (fun () ->
        if List.memq fd t.conns then begin
          t.conns <- List.filter (fun c -> c != fd) t.conns;
          true
        end
        else false)
  in
  if mine then try Unix.close fd with Unix.Unix_error _ -> ()

(* Framing damage: a best-effort framed error after whatever replies
   are still buffered, then close. *)
let close_with_error t c msg =
  (try
     Wire.write_reply c.w (Wire.Error_r msg);
     flush_replies t c
   with Unix.Unix_error _ | Sys_error _ -> ());
  drop_conn t c

(* Per-connection loop. Replies collect in the connection's writer and
   leave in one write just before a read that may block (or at 64 KiB):
   every frame one read brought in is answered together, and a drain's
   header and reply frames share writes. Framing damage (torn or
   corrupt) means the stream offset is unknown: answer with a
   best-effort framed error, then close — never resynchronize by
   guessing. A payload that arrived in an intact frame but fails to
   decode leaves the stream in sync: answer the error and keep
   serving. *)
let rec conn_loop t c =
  match
    if not (Wire.ready c.r) then flush_replies t c;
    Wire.read_request c.r
  with
  | exception (Unix.Unix_error _ | Sys_error _) ->
      (* The peer vanished while replies were leaving. *)
      drop_conn t c
  | Error `Eof -> drop_conn t c
  | Error (`Torn msg) ->
      Metrics.incr t.metrics "net.frames.torn";
      close_with_error t c ("torn frame: " ^ msg)
  | Error (`Corrupt msg) ->
      Metrics.incr t.metrics "net.frames.corrupt";
      close_with_error t c ("corrupt frame: " ^ msg)
  | Ok (Error msg) ->
      Metrics.incr t.metrics "net.requests.malformed";
      answer t c (fun () -> Wire.write_reply c.w (Wire.Error_r msg))
  | Ok (Ok (request, trace)) ->
      answer t c (fun () -> serve_one t c.w ~trace request)

and answer t c f =
  match f () with
  | () -> conn_loop t c
  | exception (Unix.Unix_error _ | Sys_error _) ->
      (* The peer vanished mid-reply. *)
      drop_conn t c
  | exception exn ->
      (* A serving bug must not kill the server: report it on this
         connection and keep the connection alive. The flight recorder
         dumps its rings first — the post-mortem record of what the
         domains were doing when the bug fired. *)
      Flight.fatal_dump ();
      Metrics.incr t.metrics "net.errors";
      answer t c (fun () ->
          Wire.write_reply c.w
            (Wire.Error_r ("internal error: " ^ Printexc.to_string exn)))

let serve_conn t fd =
  let r = Wire.reader fd and w = Wire.writer fd in
  conn_loop t { fd; r; w; published = (Wire.reader_stats r, Wire.writer_stats w) }

(* The loop never blocks in [accept] outright: it selects with a short
   tick and re-checks [stopped] between ticks, so [stop]'s join is
   bounded by one tick on every platform — no reliance on
   shutdown-a-listening-socket semantics (which vary) to wake a
   blocked accept. The shutdown [stop] performs is a best-effort
   prompter, not a correctness requirement. *)
let accept_loop t =
  let rec go () =
    if with_lock t (fun () -> t.stopped) then ()
    else
      match Unix.select [ t.listen_fd ] [] [] 0.2 with
      | [], _, _ -> go ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error _ -> ()
      | _ -> (
          match Unix.accept t.listen_fd with
          | fd, _ ->
              (* Request/reply with pipelined small frames: Nagle's
                 algorithm only adds latency here. No-op on Unix-domain
                 sockets. *)
              (try Unix.setsockopt fd Unix.TCP_NODELAY true
               with Unix.Unix_error _ -> ());
              let registered =
                with_lock t (fun () ->
                    if t.stopped then false
                    else begin
                      t.conns <- fd :: t.conns;
                      let th = Thread.create (fun () -> serve_conn t fd) () in
                      t.threads <- th :: t.threads;
                      true
                    end)
              in
              if registered then begin
                Metrics.incr t.metrics "net.connections";
                go ()
              end
              else (try Unix.close fd with Unix.Unix_error _ -> ())
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
          | exception Unix.Unix_error _ ->
              (* The listening socket was shut down (stop) or broke;
                 either way the accept loop is done. *)
              ())
  in
  go ()

let start serving addr =
  (* A reply written to a peer that vanished must surface as EPIPE —
     handled per-connection in [conn_loop] — not as a process-killing
     SIGPIPE. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let domain = Unix.domain_of_sockaddr addr in
  (match addr with
  | Unix.ADDR_UNIX path when Sys.file_exists path -> Unix.unlink path
  | _ -> ());
  let listen_fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (match domain with
  | Unix.PF_INET | Unix.PF_INET6 ->
      Unix.setsockopt listen_fd Unix.SO_REUSEADDR true
  | _ -> ());
  (try
     Unix.bind listen_fd addr;
     Unix.listen listen_fd 16
   with e ->
     (try Unix.close listen_fd with Unix.Unix_error _ -> ());
     raise e);
  let t =
    {
      serving;
      listen_fd;
      (* Re-read the bound address: an ADDR_INET with port 0 resolves
         to the kernel-assigned port here. *)
      addr = Unix.getsockname listen_fd;
      metrics = Metrics.create ();
      drain_m = Mutex.create ();
      m = Mutex.create ();
      conns = [];
      threads = [];
      stopped = false;
      accept_thread = None;
    }
  in
  t.accept_thread <- Some (Thread.create (fun () -> accept_loop t) ());
  t

let stop t =
  let proceed =
    with_lock t (fun () ->
        if t.stopped then false
        else begin
          t.stopped <- true;
          true
        end)
  in
  if proceed then begin
    (* The accept loop re-checks [stopped] every select tick, so the
       join below is bounded by one tick regardless of platform; the
       shutdown just fails any selected-but-not-yet-accepted attempt
       promptly. The fd is only closed after the join. *)
    (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    Option.iter Thread.join t.accept_thread;
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    (* Take ownership of every live connection (conn threads then skip
       their own close — see [drop_conn]), shut them down to unblock
       the blocked reads, join, and only then close. *)
    let conns, threads =
      with_lock t (fun () ->
          let c, th = (t.conns, t.threads) in
          t.conns <- [];
          (c, th))
    in
    List.iter
      (fun fd ->
        try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      conns;
    List.iter Thread.join threads;
    List.iter
      (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
      conns;
    match t.addr with
    | Unix.ADDR_UNIX path when Sys.file_exists path -> (
        try Unix.unlink path with Unix.Unix_error _ -> ())
    | _ -> ()
  end
