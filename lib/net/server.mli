(** The consent-serving socket server ([cdw serve]).

    One listening socket (Unix-domain or TCP), one accept thread, one
    thread per connection, all speaking the {!Wire} protocol over one
    shared {!Cdw_shard.Serving.t}. Submits land on the serving value's
    submit path (lock-free with N shards, the engine lock with one);
    drains and the rest use the serving value's own locking.

    Error containment, per connection:
    - a {e torn or corrupt frame} gets a best-effort framed [Error_r]
      and the connection is closed — past a framing fault the stream
      offset is unknown, and resynchronizing by guessing is how
      protocol desyncs are born;
    - an {e intact frame with a malformed payload} (bad version,
      unknown opcode, truncated body) gets a framed [Error_r] and the
      connection {e stays open} — the frame boundary is trusted, so
      the stream is still in sync;
    - a {e serving-layer rejection} (journal refusing an oversized
      record) or an unexpected exception gets a framed [Error_r] and
      the connection stays open.

    Nothing a client sends can crash the server process — the fuzzing
    suite in [test_net.ml] drives mutated frames at a live server and
    requires exactly the behaviours above.

    I/O is buffered per connection ({!Wire.reader}, {!Wire.writer}):
    one [read] takes in every frame the socket holds, and the replies
    to them collect in the connection's writer, which is flushed once
    just before a read that may block ({!Wire.ready} is false) or when
    it reaches 64 KiB. A pipelined burst is therefore answered in a few
    writes, and a [Drain]'s header and reply frames share them.

    The server's own counters ([net.connections], [net.requests],
    [net.frames.torn], [net.frames.corrupt], [net.requests.malformed],
    [net.submit.rejected], [net.errors], and the I/O totals
    [net.reads], [net.writes], [net.frames.in], [net.frames.out] —
    syscalls and frames, so [net.frames.in / net.reads] is the frames
    each read brought in) live in a registry separate from the serving
    value's; the [Metrics] and [Prom] ops expose both. The I/O totals
    are added at each flush and when a connection ends. Request
    handling is wrapped in ["net.request"] trace spans. *)

type t

val start : Cdw_shard.Serving.t -> Unix.sockaddr -> t
(** Bind, listen and spawn the accept thread. An existing socket file
    at an [ADDR_UNIX] path is unlinked first; [ADDR_INET] with port 0
    binds a kernel-assigned port (read it back with {!sockaddr}).
    Raises [Unix.Unix_error] if the address cannot be bound. The
    server borrows the serving value — closing it remains the
    caller's, after {!stop}. *)

val sockaddr : t -> Unix.sockaddr
(** The actually-bound address. *)

val metrics : t -> Cdw_engine.Metrics.t
(** Test-only: the wire tests read the server counters.

    The live net.* registry (thread-safe, shared with the serving
    threads). *)

val install_epoch :
  t -> Cdw_core.Workflow.t -> (Cdw_engine.Engine.migration, string) result
(** Install [wf] as the next base epoch, live — the same path the
    wire's [Epoch_install] opcode takes: under the server's drain
    mutex (a migration is a drain-boundary operation), counted in
    [net.epoch.installs] / [net.epoch.rejected]. This is the hook for
    out-of-band installs — [cdw serve] calls it from its SIGHUP
    file-reload handler. Safe to call from any thread. *)

val stop : t -> unit
(** Close the listening socket, shut down every open connection, join
    every thread. Idempotent. In-flight requests finish their reply
    (or hit a write error) before their thread exits. The accept loop
    polls its listener on a short tick, so the join is bounded (one
    tick) without relying on platform-specific
    wake-a-blocked-[accept] semantics. *)
