(** The consent-serving wire protocol (DESIGN.md §13).

    Every message travels in one WAL-style frame —
    [[length u32 LE][crc32 u32 LE][payload]], {!Cdw_store.Frame} — so
    the socket reader classifies damage exactly like the ledger's
    scanner: a close mid-frame is {e torn}, a CRC mismatch or
    implausible length is {e corrupt}, and a close on a frame boundary
    is a clean EOF. Frames are read and written in buffers, many per
    syscall (see {!reader} and {!writer}).

    The payload layout depends on the leading version byte:
    - [0x01]: [[0x01][opcode u8][body]];
    - [0x02]: [[0x02][opcode u8][trace i64][body]] — identical except
      for a 64-bit trace/span id between opcode and body. [0] means
      untraced; anything else is the sender's {!Cdw_obs.Trace} span id,
      which the server passes as the [?parent] of its own request span
      so one Perfetto timeline stitches client → server → shard.

    Both versions are accepted on decode; a peer speaking any other
    version gets a framed [Error_r] naming the byte. {e Replies} never
    carry a trace id, so they are always emitted in the [0x01] layout —
    which is also why a 0x01 client against a 0x02 server round-trips
    unchanged (and untraced). Request opcodes are [0x01]–[0x0A], reply
    opcodes [0x81]–[0x8A] plus [0xEF] ([Error_r]). The epoch opcodes
    ([0x09]/[0x0A], added with base-graph epochs) exist in both payload
    versions — version bytes gate the {e layout}, not the opcode set; a
    pre-epoch peer answers them with a framed "unknown opcode" error
    and stays in sync, which is the interop discipline for extending
    the protocol.

    Every request draws exactly one reply frame, except [Drain]: its
    [Drain_r n] header frame is followed by exactly [n] [Reply_r]
    frames, one engine reply each (so a drain of any size streams
    without ever outgrowing {!Cdw_store.Frame.max_payload}). *)

val version : int
(** 0x02 — the newest protocol version, and the default for encoding
    requests. *)

val min_version : int
(** 0x01 — the oldest version still accepted. *)

type hello = {
  h_algorithm : string;  (** {!Cdw_core.Algorithms.to_string} name *)
  h_seed : int;
  h_shards : int;
  h_workflow : string;
      (** the server's base workflow, {!Cdw_core.Serialize.to_string}
          text — what lets a client build workloads against a server
          it knows nothing else about *)
}

type request =
  | Hello  (** who are you: algorithm, seed, shards, base workflow *)
  | Submit of { user : string; request : Cdw_engine.Engine.request }
      (** enqueue; acked (or [Error_r]ed) individually, so clients may
          pipeline submits back-to-back *)
  | Drain  (** serve everything pending; replies stream back *)
  | Forget of string  (** withdraw the user (GDPR erasure) *)
  | Metrics  (** one JSON object: serving + net registries *)
  | Prom  (** Prometheus text exposition *)
  | Ping
  | Trace_req
      (** the server's {!Cdw_obs.Trace.export} JSON text (empty when
          server-side tracing is off) — what lets a traced
          [serve-bench --connect] run merge both processes' spans into
          one timeline *)
  | Epoch_install of string
      (** install a new base epoch live: the body is the new workflow's
          {!Cdw_core.Serialize.to_string} text. The server migrates
          every session at a drain boundary
          ({!Cdw_shard.Serving.migrate}) and answers
          [Epoch_installed_r] — or [Error_r] if the text does not
          parse or the migration is rejected *)
  | Epoch_query  (** the server's current base epoch *)

type epoch_installed = {
  e_epoch : int;  (** the epoch now serving *)
  e_recomputed : int;  (** sessions re-solved — every session *)
  e_remapped : int;
      (** always 0 from this server: migration re-solves every session.
          The field stays so the frame layout matches clients of
          earlier builds, which reported sessions kept with remapped
          cut ids here. *)
  e_dropped : int;  (** constraint pairs dropped (vanished endpoints) *)
}

type reply =
  | Hello_r of hello
  | Ack
  | Drain_r of int  (** count of [Reply_r] frames that follow *)
  | Reply_r of Cdw_engine.Engine.reply
  | Metrics_r of string
  | Prom_r of string
  | Pong
  | Trace_r of string
  | Epoch_installed_r of epoch_installed
  | Epoch_r of int
  | Error_r of string

(** {1 Payload codec} (exposed for tests; servers and clients use the
    buffered reader and writer below) *)

val encode_request : ?version:int -> ?trace:int -> request -> string
(** Test-only: [?version] and [?trace] let the codec tests encode 0x01
    payloads and traced ones without a span open.

    [version] defaults to {!version} (0x02). [trace] (default 0 =
    untraced) is the sender's span id; raises [Invalid_argument] if a
    non-zero [trace] is combined with version 0x01, which has no field
    to carry it. *)

val encode_reply : reply -> string
(** Test-only: the codec round-trip tests encode replies to a string. *)

val decode_request : string -> (request * int, string) result
(** The decoded request and its trace id (0 for untraced or version
    0x01 payloads). [Error] describes the malformation (bad version,
    unknown opcode, truncated or trailing body bytes) — the server
    answers it with a framed [Error_r] and keeps the connection: the
    {e frame} was intact, so the stream is still in sync. *)

val decode_reply : string -> (reply, string) result
(** Test-only: the codec round-trip tests decode replies from a string. *)

(** {1 Buffered frame I/O over a blocking fd}

    Bytes move in buffers, not frames. A {!reader} pulls in whatever
    the socket holds with one [read] and decodes every complete frame
    from it before reading again; a {!writer} collects frames and sends
    them with one [write] when {!flush}ed — or by itself once it holds
    64 KiB. Neither ever holds a half-encoded frame, so what the peer
    receives is the same frame sequence a frame-at-a-time sender would
    produce. Both are single-threaded: one per connection, per peer. *)

type writer

val writer : Unix.file_descr -> writer
(** A reused per-connection output buffer (64 KiB, grown only for a
    larger frame and shrunk back once flushed). *)

val write_request :
  writer -> version:int -> trace:int -> request -> unit
(** Frame the request ({!encode_request}'s payload, in
    {!Cdw_store.Frame} framing) into the buffer. Flushes by itself once
    the buffer reaches 64 KiB, so it can raise [Unix.Unix_error]. *)

val write_reply : writer -> reply -> unit
(** Like {!write_request}, for {!encode_reply}'s payload. A payload
    beyond {!Cdw_store.Frame.max_payload} raises [Invalid_argument] and
    leaves the buffer as it was. *)

val flush : writer -> unit
(** Write out everything buffered, in as many [write]s as the kernel
    takes (one, unless the socket buffer is full). The buffer is
    emptied even if a write raises [Unix.Unix_error]. *)

type reader

val reader : Unix.file_descr -> reader
(** A per-connection input buffer (64 KiB, grown only to hold one frame
    larger than that). *)

val ready : reader -> bool
(** The next {!read_request}/{!read_reply} would return without a
    [read] syscall: the buffer holds a complete frame, or a header
    whose length is already implausible. When [false], the next read
    may block — the point to flush replies still held in a writer. *)

val read_request :
  reader ->
  ((request * int, string) result,
   [ `Eof | `Torn of string | `Corrupt of string ])
  result
(** The outer [result] is frame transport, reading only when the
    buffer holds no complete frame. [`Eof]: the peer closed exactly on
    a frame boundary. [`Torn]: it closed mid-frame. [`Corrupt]: the
    length is implausible (checked against
    {!Cdw_store.Frame.max_payload} from the header alone — a corrupted
    length must not drive allocation or further reads) or the CRC does
    not match. After [`Torn]/[`Corrupt] the stream offset is unknown —
    the connection must be closed, exactly like a damaged WAL tail ends
    replay. The inner [result] is payload decoding (see
    {!decode_request}). *)

val read_reply :
  reader ->
  ((reply, string) result, [ `Eof | `Torn of string | `Corrupt of string ])
  result

type stats = { syscalls : int; frames : int }
(** Totals since the reader or writer was made: [read]/[write]
    syscalls issued, and complete frames decoded or encoded. *)

val reader_stats : reader -> stats
val writer_stats : writer -> stats
