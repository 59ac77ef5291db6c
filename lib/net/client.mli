(** Blocking client for the {!Wire} protocol.

    One connection, one thread: requests go out in order and replies
    come back in order, so the client never needs request ids. Submits
    are {e pipelined} — {!submit} buffers the frame and returns without
    waiting for its ack; the acks are collected (in order) by the next
    {!drain}/{!hello}/… call, or explicitly by {!flush}. Buffered
    requests leave in one write at the first of: a reply-bearing call,
    128 unsettled acks, 64 KiB buffered, or {!close}. That keeps a
    load-generating client's submit loop at memory speed, with one
    write and one round trip per 128 submits.

    Every protocol-level failure — a rejected submit, a torn or
    corrupt reply frame, a server-side [Error_r] — raises [Failure]
    with the server's (or the classifier's) message. *)

type t

val connect : ?version:int -> Unix.sockaddr -> t
(** Connect, retrying [ECONNREFUSED]/[ENOENT]/[ECONNRESET] every 50 ms
    up to 100 times — enough to race a server that is still binding
    its socket. Raises the last [Unix.Unix_error] if the server never
    appears.

    [version] (default {!Wire.version}, 0x02) selects the payload
    layout this client speaks; pass [0x01] to act as a legacy client.
    On 0x02, every request carries the calling thread's current
    {!Cdw_obs.Trace} span id (0 when tracing is off), and {!submit} /
    {!drain} wrap themselves in ["client.submit"]/["client.drain"]
    spans — so a traced run stitches client → server → shard into one
    timeline (see {!server_trace}). *)

val submit : t -> user:string -> Cdw_engine.Engine.request -> unit
(** Pipeline one submit: its frame goes into the client's buffer. The
    ack (or rejection) is read later — see {!flush}. Pipelining is
    {e bounded}: past 128 unsettled acks the call sends the buffer and
    settles them first (unread acks fill the server's send buffer, so
    unbounded pipelining mutual-write-deadlocks the connection — a
    burst of thousands of submits between drains, e.g. a [--traffic]
    window, would otherwise hang). A server that has gone away shows
    as [Unix.Unix_error] from the call that sends the buffer. *)

val flush : t -> unit
(** Send what is buffered, then read the acks for every pipelined
    submit. Raises [Failure "submit rejected: …"] on the first
    rejection. Called implicitly by every reply-bearing request
    below. *)

val drain : t -> Cdw_engine.Engine.reply list
(** Flush, then drain the server: replies in the server's global
    first-submission order, streamed one frame each. *)

val hello : t -> Wire.hello
val forget : t -> string -> unit

val metrics : t -> string
(** JSON object with ["serving"] and ["net"] registries. *)

val prometheus : t -> string
val ping : t -> unit

val install_epoch : t -> string -> Wire.epoch_installed
(** Flush, then install a new base epoch from its
    {!Cdw_core.Serialize.to_string} text — the server migrates every
    session live ({!Cdw_shard.Serving.migrate}) and reports what the
    migration did. Raises [Failure] with the server's message if the
    text does not parse or the install is rejected. *)

val epoch : t -> int
(** The server's current base epoch. *)

val server_trace : t -> string
(** The server's own {!Cdw_obs.Trace.export} JSON text, [""] when
    server-side tracing is off ([cdw serve] without [--trace]). Merge
    it with the local export via {!Cdw_obs.Trace.merge_exports}. *)

val close : t -> unit
(** Send what is buffered (best effort: a write error is ignored), then
    close the socket. Submits sent this way reach the server, but their
    acks are never read — {!flush} first if you need to know they were
    accepted. *)

val bench_target : prefix:string -> t -> Cdw_shard.Shard_bench.target
(** The serve-bench drivers' target over this connection (see
    {!Cdw_shard.Shard_bench}): the base is the server's, fetched with
    {!hello}; [reset] {!forget}s the given users; [install] ships the
    workflow as an epoch install. With [prefix] other than ["user"],
    every user [u] is submitted as [prefix.u] and drains return only
    replies for users in that namespace, so clients with distinct
    prefixes share one server without touching each other's sessions.
    Raises [Failure] if the server's base does not parse. *)
