(** The append-only write-ahead log file.

    A WAL is a flat sequence of {!Frame}s. Appends are atomic from the
    reader's point of view (a partial append classifies as a torn tail
    and is discarded on recovery), thread-safe (one mutex), and durable
    according to the configured fsync policy:

    - [Always] — fsync after every append: nothing acknowledged is ever
      lost, at the cost of one disk sync per request;
    - [Every n] — fsync every [n] appends (and on {!sync}/{!close}): a
      crash loses at most the last [n-1] acknowledged events;
    - [Never] — OS buffering only (still [flush]ed to the kernel per
      append, so only an OS/power failure loses data, not a process
      crash).

    A {!group_commit} applies the same policy to a batch of appends
    instead of to each one: they reach the kernel together when the
    group ends (one write per 64 KiB of channel buffer), and the policy
    is checked once then.

    Reading never goes through a {!t}: {!scan} works on the file, so
    recovery can inspect a log the crashed process still nominally
    owns. *)

type fsync_policy = Always | Every of int | Never

val fsync_policy_of_string : string -> (fsync_policy, string) result
(** ["always"], ["never"] or ["every:N"] (N ≥ 1). *)

val fsync_policy_to_string : fsync_policy -> string

type t

val create : ?fsync:fsync_policy -> string -> t
(** Create or truncate the file. [fsync] defaults to [Every 32]. *)

val open_append : ?fsync:fsync_policy -> string -> t
(** Open for appending, creating an empty log if missing. *)

val append : t -> string -> unit
(** Frame the payload and append it, flushing to the OS and fsyncing
    per policy before returning — unless the calling thread is inside
    {!group_commit}, which does both for it when the group ends. *)

val group_commit : t -> (unit -> 'a) -> 'a
(** [group_commit t f] runs [f] with the calling thread's appends to
    [t] left in the channel buffer: no per-append flush or fsync. When
    [f] returns or raises, everything buffered is written to the kernel
    together and the policy is checked once — [Always]: fsync if any
    append is unsynced; [Every n]: fsync if at least [n] are; [Never]:
    no fsync. Appends by other threads during [f] keep their own flush
    (which also writes the group's frames so far — the order on disk
    is the append order either way). Raises [Invalid_argument] if a
    group is already open on [t]. *)

type observer = { on_append : bytes:int -> unit; on_fsync : unit -> unit }
(** Callbacks fired after each framed append (with the on-disk frame
    size, header included) and after each completed fsync. Called with
    the WAL lock held, so they must not call back into this [t]; bumping
    an external counter (e.g. {!Cdw_engine.Metrics}) is the intended
    use. *)

val set_observer : t -> observer -> unit
(** Install [observer], replacing any previous one. *)

val length : t -> int
(** Current byte length (file size at open plus appends since). *)

val sync : t -> unit
(** Flush and fsync regardless of policy. *)

val close : t -> unit
(** {!sync} then close. Idempotent. *)

(** {1 Scanning} *)

type tail =
  | Clean  (** the log ends exactly on a frame boundary *)
  | Torn of { offset : int; reason : string }
      (** a partial append at [offset] — expected after a crash *)
  | Corrupt of { offset : int; reason : string }
      (** bad length or CRC at [offset] — bit rot or overwrite *)

type scan = {
  entries : (int * string) list;  (** (byte offset, payload), in order *)
  valid_end : int;  (** bytes of valid prefix; scanning resumes here *)
  tail : tail;
}

val scan : ?from:int -> string -> (scan, string) result
(** Read the file and decode frames from byte [from] (default 0) to the
    first invalid one. [Error] only for an unreadable file; torn or
    corrupt tails are reported in [tail], never as [Error]. A [from]
    beyond the file length returns no entries and a [Clean] tail (the
    log was compacted underneath the offset). *)

val pp_tail : Format.formatter -> tail -> unit
