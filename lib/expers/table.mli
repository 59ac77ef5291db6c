(** Aligned text tables and CSV output for the experiment harness. *)

type t = { title : string; header : string list; rows : string list list }

val print : ?oc:out_channel -> t -> unit
(** Test-only: [?oc] (default [stdout]) lets the experiments test
    capture the rendering.

    Column-aligned rendering with a title rule. *)

val write_csv : dir:string -> name:string -> t -> string
(** Write [dir/name.csv] (creating [dir] if needed); returns the path.
    Cells containing commas or quotes are quoted. *)
