(** The serving value: a {!Shard_group} at every shard count, plus the
    crash-restart entry point front ends call.

    Front ends (the serve-bench driver, the network server, the repo
    benchmark) are written once against this module. [create ~shards]
    picks the shape; everything else — submit, drain, migrate,
    tiering, metrics, ledgers — is {!Shard_group}'s, which
    documents how one shard and N shards drain and the durability
    contract both meet. *)

include module type of struct
  include Shard_group
end

type resumed = {
  serving : t;  (** re-attached and serving, journal included *)
  replayed : int;  (** WAL records replayed (summed over shards) *)
  damaged : int list;  (** shard ids with a torn/corrupt (now truncated) tail *)
}

val resume :
  ?fsync:Cdw_store.Wal.fsync_policy ->
  ?snapshot_every_bytes:int ->
  string ->
  (resumed, string) result
(** Resume whatever ledger lives at the root ({!Shard_group.resume}): a
    [group.json] marks a group root, anything else resumes as a
    one-shard group over one engine's ledger. This is how
    [cdw serve --journal DIR] restarts over an existing ledger without
    being told its shape. *)
