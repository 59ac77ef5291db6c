module Engine = Cdw_engine.Engine
module Trace = Cdw_obs.Trace

type t = {
  fd : Unix.file_descr;
  version : int;  (* the payload version this client speaks *)
  r : Wire.reader;
  w : Wire.writer;  (* requests not yet sent *)
  mutable outstanding : int;  (* pipelined submits awaiting their ack *)
}

let rec connect_retry addr tries =
  let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  match Unix.connect fd addr with
  | () ->
      (* Pipelined small frames: Nagle only adds latency. No-op on
         Unix-domain sockets. *)
      (try Unix.setsockopt fd Unix.TCP_NODELAY true
       with Unix.Unix_error _ -> ());
      fd
  | exception
      Unix.Unix_error
        ((Unix.ECONNREFUSED | Unix.ENOENT | Unix.ECONNRESET), _, _)
    when tries > 0 ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Unix.sleepf 0.05;
      connect_retry addr (tries - 1)
  | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e

let connect ?(retries = 100) ?(version = Wire.version) addr =
  if version < Wire.min_version || version > Wire.version then
    invalid_arg (Printf.sprintf "Client.connect: unknown version 0x%02x" version);
  (* A submit written to a server that died must surface as EPIPE (an
     exception the caller can handle), not as a process-killing
     SIGPIPE. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let fd = connect_retry addr retries in
  { fd; version; r = Wire.reader fd; w = Wire.writer fd; outstanding = 0 }

(* Submits still buffered leave first, so a submit followed by [close]
   reaches the server. *)
let close t =
  (try Wire.flush t.w with Unix.Unix_error _ -> ());
  try Unix.close t.fd with Unix.Unix_error _ -> ()

(* Every read first sends whatever is buffered: the reply being waited
   for may answer one of those requests. *)
let read_reply t =
  Wire.flush t.w;
  match Wire.read_reply t.r with
  | Ok (Ok reply) -> reply
  | Ok (Error msg) -> failwith ("malformed reply: " ^ msg)
  | Error `Eof -> failwith "server closed the connection"
  | Error (`Torn msg) -> failwith ("torn reply frame: " ^ msg)
  | Error (`Corrupt msg) -> failwith ("corrupt reply frame: " ^ msg)

(* Settle every pipelined submit before a request that expects a typed
   reply — replies arrive strictly in request order, so the pending
   acks are exactly the next [outstanding] frames. *)
let flush t =
  while t.outstanding > 0 do
    let reply = read_reply t in
    t.outstanding <- t.outstanding - 1;
    match reply with
    | Wire.Ack -> ()
    | Wire.Error_r msg -> failwith ("submit rejected: " ^ msg)
    | _ -> failwith "protocol desync: expected a submit ack"
  done

(* Every outgoing request carries the caller's current span id (0 when
   tracing is off or the connection speaks 0x01) — the server parents
   its own request span under it, stitching the two processes' traces
   together. *)
let send t request =
  let trace = if t.version >= 0x02 then Trace.current_span () else 0 in
  Wire.write_request t.w ~version:t.version ~trace request

let rpc t request =
  flush t;
  send t request;
  read_reply t

(* Pipelining must be bounded. Acks now share segments — the server
   answers every submit one read brought in with one write — but an
   unread ack stream still fills the server's send buffer eventually:
   the server then blocks writing acks, stops reading submits, and the
   two peers deadlock writing at each other. Coalescing only moves that
   point further out (a few thousand acks instead of a few hundred), so
   the bound stays: settling every 128 submits keeps the server's ack
   stream always drainable, which is what makes an arbitrarily long
   submit burst safe. It is also the client's flush point in a burst —
   128 submits leave in one write. *)
let max_outstanding = 128

let submit t ~user request =
  if t.outstanding >= max_outstanding then flush t;
  Trace.span "client.submit"
    ~args:[ ("user", user) ]
    (fun () -> send t (Wire.Submit { user; request }));
  t.outstanding <- t.outstanding + 1

(* The drain span covers send-to-last-reply, so the server's drain
   (parented under it via the wire trace id) nests inside it on the
   merged timeline. *)
let drain t =
  Trace.span "client.drain" (fun () ->
      match rpc t Wire.Drain with
      | Wire.Drain_r n ->
          List.init n (fun _ ->
              match read_reply t with
              | Wire.Reply_r r -> r
              | Wire.Error_r msg -> failwith msg
              | _ -> failwith "protocol desync: expected a drain reply")
      | Wire.Error_r msg -> failwith msg
      | _ -> failwith "protocol desync: expected a drain header")

let hello t =
  match rpc t Wire.Hello with
  | Wire.Hello_r h -> h
  | Wire.Error_r msg -> failwith msg
  | _ -> failwith "protocol desync: expected a hello reply"

let forget t user =
  match rpc t (Wire.Forget user) with
  | Wire.Ack -> ()
  | Wire.Error_r msg -> failwith msg
  | _ -> failwith "protocol desync: expected a forget ack"

let metrics t =
  match rpc t Wire.Metrics with
  | Wire.Metrics_r s -> s
  | Wire.Error_r msg -> failwith msg
  | _ -> failwith "protocol desync: expected metrics"

let prometheus t =
  match rpc t Wire.Prom with
  | Wire.Prom_r s -> s
  | Wire.Error_r msg -> failwith msg
  | _ -> failwith "protocol desync: expected an exposition"

let ping t =
  match rpc t Wire.Ping with
  | Wire.Pong -> ()
  | Wire.Error_r msg -> failwith msg
  | _ -> failwith "protocol desync: expected a pong"

let install_epoch t workflow_text =
  match rpc t (Wire.Epoch_install workflow_text) with
  | Wire.Epoch_installed_r e -> e
  | Wire.Error_r msg -> failwith msg
  | _ -> failwith "protocol desync: expected an epoch-install reply"

let epoch t =
  match rpc t Wire.Epoch_query with
  | Wire.Epoch_r e -> e
  | Wire.Error_r msg -> failwith msg
  | _ -> failwith "protocol desync: expected an epoch"

let server_trace t =
  match rpc t Wire.Trace_req with
  | Wire.Trace_r s -> s
  | Wire.Error_r msg -> failwith msg
  | _ -> failwith "protocol desync: expected a trace dump"
