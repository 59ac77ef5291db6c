include Shard_group

type resumed = { serving : t; replayed : int; damaged : int list }

let resume ?fsync ?snapshot_every_bytes root =
  Result.map
    (fun (serving, (r : Shard_group.recovery)) ->
      { serving; replayed = r.replayed; damaged = r.damaged })
    (Shard_group.resume ?fsync ?snapshot_every_bytes root)
