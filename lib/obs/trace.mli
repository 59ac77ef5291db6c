(** Structured tracing and the flight recorder: one buffer per domain
    holds both.

    {b Tracing}: nestable, domain-safe spans exported as Chrome
    trace-event JSON (loadable in Perfetto / [chrome://tracing]).
    Tracing is a process-wide switch ({!set_enabled}), off by default.
    While off, {!span} costs one atomic load and a branch — hot paths
    keep their hooks permanently. While on, every span records a begin
    and an end event into a buffer private to the recording domain
    (created on a domain's first use, registered once under a mutex,
    then written lock-free), so parallel drains on many domains never
    contend.

    Spans nest lexically within a domain — the innermost open span is
    the implicit parent — and can link across domains by passing an
    explicit [?parent] id (e.g. the engine hands its drain span id to
    the per-user batch tasks it fans out). Timestamps are microseconds
    since the trace epoch and are clamped monotone per domain.

    Trace events are bounded: past {!set_capacity} events per domain,
    new spans stop recording (their count is reported by {!dropped})
    while already-open spans still record their end — the exported
    trace always has balanced begin/end pairs.

    {b Flight recorder}: the same buffer holds a ring of the last 4096
    coarse spans the domain completed ({!timed}), written
    whether or not tracing is on. It answers "what was this process
    doing just now" without anything enabled in advance: serving code
    records drain-granularity entries (a few stores into preallocated
    slots — no lock, no I/O, no growth), so a stalled or crashed
    multi-core run can be diagnosed from its last few thousand drains
    per domain. When the process is idle nothing records. Dumps
    ({!flight_export}) are Chrome trace-event JSON of complete (["X"])
    events with [dur], summarizable by {!Trace_summary} (including
    [cdw trace summarize --scaling]). A dump is triggered by [SIGUSR1]
    (after {!install}), by a server's fatal-error path ({!fatal_dump}),
    or explicitly ({!flight_write}). It reads the rings {e racily}: a
    slot being overwritten at that instant may be torn. That is the
    deliberate trade: zero synchronization on the record path,
    best-effort snapshots out.

    {b One takeover rule}: a domain that exited hands its buffer to the
    next domain that needs one, once the buffer holds no unexported
    trace events (it was never traced, or {!reset} emptied it); the new
    owner starts with a cleared ring. So the buffers held are bounded by
    the domains alive at once, plus, in a traced process, exited
    domains whose events await an export — and their rings stay in
    flight dumps until the next {!reset} lets a new domain take them
    over. *)

val set_enabled : bool -> unit
val enabled : unit -> bool

val set_capacity : int -> unit
(** Per-domain event budget (default 262144). Applies to buffers not
    yet full. *)

val reset : unit -> unit
(** Drop all recorded trace events and restart the trace epoch; the
    flight rings keep their entries. Call while no spans are being
    recorded. *)

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
(** Allocate (or take over) the calling domain's buffer and its flight
    ring now instead of lazily inside its first {!span} or {!timed}.
    Long-lived worker domains call this at spawn so the one-time setup
    never inflates a measured span. Other domains get the ring, four
    flat arrays, with their first entry. *)

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
    exited domain whose buffer still holds trace events. *)

val dropped : unit -> int
(** Spans not recorded because their domain's buffer was full. *)

(** {1 Flight recorder} *)

val timed :
  ?args:(string * string) list ->
  ?parent:int ->
  ?shard:int ->
  string ->
  (float -> unit) ->
  (unit -> 'a) ->
  'a
(** [timed name k f] runs [f] inside {!span} [name], records the same
    interval into this domain's flight ring (overwriting the oldest
    entry once full), and passes its length in µs to [k]: all three
    from one pair of clock reads, also when [f] raises. [args] and
    [parent] are {!span}'s; [shard] tags the ring entry's Perfetto
    [args], and the span's as an extra ["shard"] arg. *)

val flight_entries : unit -> int
(** Test-only: lets the flight-recorder tests count entries.

    Entries ever recorded, across all domains (not bounded by ring
    capacity). *)

val set_context : (unit -> Cdw_util.Json.t) option -> unit
(** Attach a thunk whose JSON is embedded in every flight dump (under
    ["flight"."context"]) — e.g. per-domain accounting counters. It may
    run from a signal handler concurrently with serving, so it must
    only read atomics or immutable data; exceptions drop the context
    from that dump. *)

val flight_export : unit -> Cdw_util.Json.t
(** Test-only: lets the flight-recorder tests read the dump.

    The rings as a trace-event JSON object: ["X"] events with [dur],
    timestamps rebased so the oldest retained entry is [ts = 0], with
    the absolute anchor in ["traceEpochUs"] and recorder stats (+
    context) under ["flight"]. *)

val flight_write : string -> unit
(** {!flight_export} serialized (compact) into a file. *)

val install : path:string -> unit
(** Arm post-mortem dumping: installs a [SIGUSR1] handler that writes
    {!flight_export} to [path], and registers [path] as the
    {!fatal_dump} target. *)

val fatal_dump : unit -> unit
(** Write a flight dump to the {!install}ed path (no-op when none):
    called by the network server when a serving exception escapes.
    Never raises. *)

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
