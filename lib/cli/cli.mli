(** The [cdw] command-line interface (see [bin/cdw.ml] for the entry
    point). Exposed as a library so the test suite can exercise the
    commands in-process. *)

val eval : ?argv:string array -> unit -> int
(** Test-only: [?argv] lets the CLI tests run commands in-process.

    Evaluate the command line (defaults to [Sys.argv]) and return the
    exit code. *)
