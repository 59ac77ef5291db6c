(** Fault injection for the ledger's crash-recovery tests and drills.

    All faults are byte-level edits of a WAL file, modelling two
    classic failure shapes:

    - {b torn write} / crash mid-append — {!truncate_to} or
      {!truncate_tail} chops the file mid-frame;
    - {b bit rot} — {!flip_bit} inverts one bit in place.

    [test_store.ml] drives these over every byte boundary of a log's
    last record and asserts recovery always reconstructs exactly the
    surviving record prefix. The [cdw store fault] subcommand exposes
    them for recovery drills on real ledgers. *)

val truncate_to : string -> int -> unit
(** Test-only: fault injection for the crash tests.

    Keep the first [n] bytes of the file. *)

val truncate_tail : string -> int -> unit
(** Remove the last [n] bytes (clamped at emptying the file). *)

val flip_bit : string -> byte:int -> bit:int -> unit
(** Invert bit [bit] (0–7) of byte [byte]. Raises [Invalid_argument]
    outside the file. *)

val copy_ledger : src:string -> dst:string -> unit
(** Test-only: fault injection for the crash tests.

    Copy a ledger directory's files (manifest, snapshot, WALs) into
    [dst], creating it if needed — tests corrupt the copy, never the
    original. *)
