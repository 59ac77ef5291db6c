(** Structured tracing: nestable, domain-safe spans exported as Chrome
    trace-event JSON (loadable in Perfetto / [chrome://tracing]).

    Tracing is a process-wide switch ({!set_enabled}), off by default.
    While off, {!span} costs one atomic load and a branch — hot paths
    keep their hooks permanently. While on, every span records a begin
    and an end event into a buffer private to the recording domain
    (created on a domain's first span, registered once under a mutex,
    then written lock-free), so parallel drains on many domains never
    contend.

    Spans nest lexically within a domain — the innermost open span is
    the implicit parent — and can link across domains by passing an
    explicit [?parent] id (e.g. the engine hands its drain span id to
    the per-user batch tasks it fans out). Timestamps are microseconds
    since the trace epoch and are clamped monotone per domain.

    Buffers are bounded: past {!set_capacity} events per domain, new
    spans stop recording (their count is reported by {!dropped}) while
    already-open spans still record their end — the exported trace
    always has balanced begin/end pairs. *)

val set_enabled : bool -> unit
val enabled : unit -> bool

val set_capacity : int -> unit
(** Per-domain event budget (default 262144). Applies to buffers not
    yet full. *)

val reset : unit -> unit
(** Drop all recorded events and restart the trace epoch. Call while no
    spans are being recorded. *)

val span :
  ?args:(string * string) list -> ?parent:int -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f] inside a span. The result or exception of
    [f] passes through; the end event is recorded either way. [args]
    become the begin event's Chrome [args]. [parent] overrides the
    implicit (same-domain) parent — pass another domain's
    {!current_span} to stitch a cross-domain fan-out together. *)

val current_span : unit -> int
(** Id of the innermost open span on this domain, 0 if none. Non-zero
    only while tracing is enabled. Ids are unique across processes
    (the counter is seeded from the pid), so a span id can travel over
    a wire protocol and parent spans in another process. *)

val prewarm : unit -> unit
(** Allocate the calling domain's event buffer now instead of lazily
    inside its first {!span}. Long-lived worker domains call this at
    spawn so the one-time allocation never inflates a measured span. *)

val set_process_label : string -> unit
(** Name this process's track in the exported timeline (the Perfetto
    [process_name] metadata; default ["cdw"]). *)

(** {1 Introspection} *)

val recorded_events : unit -> int
(** Test-only: the trace tests check that nothing is recorded while off.

    Events currently buffered, across all domains. *)

val buffer_count : unit -> int
(** Test-only: the domain-pool tests check that a traced one-shard
    server keeps the number of buffers bounded.

    Buffers registered: one per domain alive at once, plus one per
    exited domain whose buffer still holds events. A new domain takes
    over an exited domain's empty buffer; {!reset} empties them all. *)

val dropped : unit -> int
(** Spans not recorded because their domain's buffer was full. *)

(** {1 Export} *)

val export : unit -> Cdw_util.Json.t
(** The whole trace as a Chrome trace-event JSON object:
    [{ "traceEvents": [...], "displayTimeUnit": "ms",
       "traceEpochUs": ... }]. Each span contributes a ["B"]/["E"]
    pair carrying [pid] (the process) and [tid] (the domain), and
    begin events carry ["id"]/["parent"] span-id args. Thread-name and
    process-name metadata events label the tracks. [traceEpochUs]
    anchors [ts = 0] in absolute time (µs since the Unix epoch) so
    exports from different processes can be aligned — see
    {!merge_exports}. Call after the traced work has quiesced. *)

val merge_exports : Cdw_util.Json.t -> Cdw_util.Json.t -> Cdw_util.Json.t
(** [merge_exports ours theirs] shifts [theirs]'s timestamps by the
    two exports' [traceEpochUs] delta onto [ours]'s clock and
    concatenates the event streams — one Perfetto timeline spanning
    both processes (wall clocks permitting: the alignment is as good
    as the two hosts' clock agreement; on one host it is exact). *)

val write : string -> unit
(** {!export} serialized (compact) into a file. *)
