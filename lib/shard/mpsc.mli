(** Lock-free multi-producer queue with single-swap batch consumption —
    the submit-side handoff of the sharded serving group.

    The shard group's requirement is narrower than a general MPSC
    queue: many producer domains (network connections, submitting
    threads) hand items to one shard, and the shard's pinned domain
    consumes them {e in batches} at drain boundaries, never one at a
    time. That shape has a classic wait-free-consumer solution: a
    Treiber stack of immutable list cells. {!push} is a single
    compare-and-set loop on the head (no locks, no allocation beyond
    the cell); {!take_all} is one [Atomic.exchange] plus a reversal,
    which restores first-pushed-first order.

    Ordering guarantee: {!take_all} returns items in the linearization
    order of their pushes. Two producers racing on {!push} linearize in
    CAS order, which may differ from the order they drew any external
    sequence numbers — consumers that need a total order across
    producers (the shard drain does) sort the batch by its embedded
    sequence numbers after taking it. A single producer's items are
    always in its own push order.

    All operations are safe from any domain or thread; [take_all] may
    even race another [take_all] (each item is delivered exactly
    once). *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> 'a -> unit
(** Lock-free append: one CAS loop, wait-free in the absence of
    contention. *)

val take_all : 'a t -> 'a list
(** Atomically take every item currently in the queue, in push
    (linearization) order. Items pushed concurrently with the exchange
    land in the next batch. *)
