(** Cold/warm session tiering: an intrusive-list LRU over resident
    sessions plus a parked-state table for evicted ones.

    At a million users, keeping every {!Session} resident costs real
    memory; almost all of them are idle at any instant. The tier keeps
    the hot set live under an explicit byte budget and {e parks} the
    rest: an evicted session collapses to its recoverable essence —
    constraint pairs, cut edge ids, rng state — a compact record an
    order of magnitude smaller than the live session, and (when the
    engine is journaled) already durable in the ledger. Rehydration
    re-installs that record through the zero-solver-run
    {!Session.restore} path, so eviction is observably transparent:
    capped and uncapped runs produce bit-identical replies and final
    states (the differential gate in [test_tier.ml]).

    A tier value is {b not thread-safe}: every call happens under the
    owning {!Engine}'s lock, which already serialises session-table
    access. The engine evicts only at drain boundaries and never evicts
    a user with queued requests (see [Engine.set_mem_cap]). *)

type parked = {
  p_pairs : (int * int) list;  (** accepted constraint pairs *)
  p_cuts : int list;  (** removed edge ids relative to the base *)
  p_rng : int64;  (** session generator state ({!Session.rng_state}) *)
}

type stats = {
  resident : int;  (** sessions currently live (tracked in the LRU) *)
  parked : int;  (** sessions currently evicted to the parked table *)
  resident_peak : int;
  resident_bytes : int;
  resident_bytes_peak : int;
  cap_bytes : int;
  session_bytes : int;  (** the per-resident-session cost estimate *)
  evictions : int;
  hydrations : int;
}

type t

val create : cap_bytes:int -> session_bytes:int -> t
(** An empty tier charging [session_bytes] per resident session against
    a [cap_bytes] budget. Raises [Invalid_argument] unless both are
    positive. *)

val set_cap_bytes : t -> int -> unit

val touch : t -> string -> unit
(** Mark the user's session most-recently-used, inserting it if the
    LRU does not track it yet. O(1). *)

val remove : t -> string -> unit
(** Forget the user entirely: LRU node and parked record both dropped
    (GDPR erasure reaches the cold tier too). O(1). *)

val over_cap : t -> bool

val pop_coldest : t -> pinned:(string -> bool) -> string option
(** Unlink and return the least-recently-used resident user whose
    [pinned] predicate is false, walking from the cold end; [None] when
    every tracked user is pinned. Pinned users it walks past keep their
    LRU position. The caller parks the returned user's state with
    {!park}. *)

val park : t -> string -> parked -> unit
(** Record the evicted user's parked state (and count the eviction).
    The user must already be out of the LRU ({!pop_coldest}). *)

val repark : t -> string -> parked -> unit
(** Replace a user's parked record in place {e without} counting an
    eviction — epoch migration rewriting cold-tier state onto a new
    base, not a cache decision. *)

val take_parked : t -> string -> parked option
(** Remove and return the user's parked record — the hydration read
    path (counts a hydration when present). *)

val peek_parked : t -> string -> parked option
(** The parked record without removing it (snapshot enumeration). *)

val fold_parked : t -> init:'a -> f:('a -> string -> parked -> 'a) -> 'a

val stats : t -> stats
