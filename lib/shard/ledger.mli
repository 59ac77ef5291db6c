(** Shape-dispatching offline ledger tools.

    A consent ledger on disk is either a plain single-engine store
    directory or a sharded root ([group.json] plus [shard-<i>/]
    directories). Every function here detects the shape from the
    filesystem and fans out accordingly, so [cdw store] serves both
    shapes: entries are tagged [Some shard_id] under a group root and
    [None] for a plain store. *)

val verify :
  string -> ((int option * Cdw_store.Store.report) list, string) result
(** {!Cdw_store.Store.verify} every ledger under the root (one for a
    plain store, one per shard for a group), in shard order. *)

val clean : (int option * Cdw_store.Store.report) list -> bool
(** Every report is {!Cdw_store.Store.report_clean}. *)

type replayed = {
  entries : (int option * Cdw_store.Store.recovery) list;
      (** per-ledger recovery, in shard order *)
  replayed : int;  (** total WAL records replayed *)
  damaged : int list;
      (** ids of ledgers with a torn/corrupt tail ([[0]] for a damaged
          plain store) *)
}

val replay : string -> (replayed, string) result
(** Read-only recovery of every ledger under the root
    ({!Cdw_store.Store.recover} / {!Shard_group.recover}). *)

val compact : string -> ((int option * int * int) list, string) result
(** Resume, compact and close every ledger under the root. Each entry
    is [(id, generation before, generation after)]. *)
