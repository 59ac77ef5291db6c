(** Stable user → shard routing for the sharded serving group.

    Routing is {b modulo over a SplitMix-mixed digest} of the user id's
    bytes. Modulo was chosen over rendezvous (highest-random-weight)
    hashing deliberately: a consent ledger pins its shard count for the
    lifetime of the store root ([group.json]; {!Serving.recover}
    reads only the shards it pins), because re-routing a user mid-ledger would
    strand their journaled history on the old shard. With the shard
    count fixed, rendezvous hashing's only advantage — minimal movement
    under membership change — buys nothing, and modulo keeps the route
    a pure O(|user|) function of the id and the count.

    The digest chains every byte through a fresh SplitMix64 step, so
    it is independent of OCaml's [Hashtbl.hash] (whose value is not
    specified across versions) and stable across processes, runs and
    architectures — a user observes the same shard today, after a
    crash-recovery, and in the differential test's re-run. *)

val shard_of : shards:int -> string -> int
(** [shard_of ~shards user] in [0, shards). Raises [Invalid_argument]
    if [shards <= 0]. *)
