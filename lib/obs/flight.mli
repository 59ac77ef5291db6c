(** Flight recorder: an always-on, bounded, per-domain ring of the most
    recent coarse spans — the post-mortem companion to {!Trace}.

    {!Trace} answers "what happened in this run I decided to profile";
    the flight recorder answers "what was this process doing just now"
    without anything having been enabled in advance. Serving code
    records drain-granularity spans unconditionally ({!record} is a few
    field stores into a preallocated ring slot — no lock, no I/O, no
    growth), so a stalled or crashed multi-core run can be diagnosed
    from its last few thousand drains per domain. When the process is
    idle nothing records, so the recorder's overhead is proportional to
    drain activity, not to time.

    Dumps are Chrome trace-event JSON using complete (["X"]) events
    with [dur], loadable in Perfetto and summarizable by
    {!Trace_summary} (including [cdw trace summarize --scaling]). A
    dump is triggered by [SIGUSR1] (after {!install}), by a server's
    fatal-error path ({!fatal_dump}), or explicitly ({!write}). The
    dump reads the rings {e racily} — a slot being overwritten at that
    instant may be torn. That is the deliberate trade: zero
    synchronization on the record path, best-effort snapshots out. *)

val prewarm : unit -> unit
(** Allocate the calling domain's ring now instead of lazily on its
    first {!record}. Long-lived worker domains call this at spawn so
    the one-time allocation cost never lands inside a measured span.
    A domain that exited hands its ring to the next domain that needs
    one, whose first use clears the old owner's entries: the rings
    held are bounded by the domains alive at once. *)

val record : ?shard:int -> string -> t0_us:float -> dur_us:float -> unit
(** Record one completed span into this domain's ring, overwriting the
    oldest entry once full. [t0_us] is absolute (µs since the Unix
    epoch); [shard] tags the entry's Perfetto [args]. *)

val recorded : unit -> int
(** Test-only: lets the flight-recorder tests count entries.

    Entries ever recorded, across all domains (not bounded by ring
    capacity). *)

val ring_count : unit -> int
(** Test-only: the shard tests check that creating and closing groups
    keeps the number of rings bounded.

    Rings registered so far: one per domain alive at once — a new
    domain takes over the ring of one that exited. *)

val set_context : (unit -> Cdw_util.Json.t) option -> unit
(** Attach a thunk whose JSON is embedded in every dump (under
    ["flight"."context"]) — e.g. per-domain accounting counters. It may
    run from a signal handler concurrently with serving, so it must
    only read atomics or immutable data; exceptions drop the context
    from that dump. *)

val export : unit -> Cdw_util.Json.t
(** Test-only: lets the flight-recorder tests read the dump.

    The rings as a trace-event JSON object: ["X"] events with [dur],
    timestamps rebased so the oldest retained entry is [ts = 0], with
    the absolute anchor in ["traceEpochUs"] and recorder stats (+
    context) under ["flight"]. *)

val write : string -> unit
(** {!export} serialized (compact) into a file. *)

val install : path:string -> unit
(** Arm post-mortem dumping: installs a [SIGUSR1] handler that writes
    {!export} to [path], and registers [path] as the {!fatal_dump}
    target. *)

val fatal_dump : unit -> unit
(** Write a dump to the {!install}ed path (no-op when none): called by
    the network server when a serving exception escapes. Never
    raises. *)
