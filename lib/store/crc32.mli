(** CRC-32 (IEEE 802.3, the zlib/PNG polynomial), table-driven.

    The container ships no checksum library, and the ledger only needs
    the standard 32-bit CRC to frame its records, so this is the
    classic 256-entry reflected-table implementation. Values are plain
    non-negative [int]s below [2{^32}]. *)

val string : string -> int
(** [string s] is the CRC-32 of [s]. *)

val bytes : ?pos:int -> ?len:int -> bytes -> int
(** Same over a [bytes] slice. *)
