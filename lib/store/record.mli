(** The records of a ledger — the durable form of {!Cdw_engine.Engine.event}.

    One record per WAL frame, encoded as compact JSON. Vertices are
    identified by {e name}, not by integer id: names are the stable
    identity of a workflow across serialisation round-trips (dense ids
    may be renumbered by a reload), and they keep the audit trail
    human-readable — a GDPR reviewer can read the log without the
    workflow file at hand.

    {v {"t":"grant","u":"alice","p":[["alice","ads"]]}
   {"t":"withdraw","u":"alice","p":[["alice","ads"]]}
   {"t":"resolve","u":"alice"}
   {"t":"open","u":"alice"}      {"t":"close","u":"alice"}
   {"t":"drain","n":3} v} *)

type t =
  | Grant of { user : string; pairs : (string * string) list }
      (** consent constraints accepted (source name, target name) *)
  | Withdraw of { user : string; pairs : (string * string) list }
  | Resolve of { user : string }  (** forced re-optimisation *)
  | Session_open of { user : string }
  | Session_close of { user : string }
  | Drain of { seq : int }  (** a drain boundary: everything before is served *)
  | Epoch_installed of { epoch : int; workflow : string }
      (** a new base epoch went live; [workflow] is its
          {!Cdw_core.Serialize} text — replay parses it and re-freezes
          deterministically. The workflow text is newline-heavy, which
          JSON string escaping flattens to the one-frame-per-line WAL
          discipline. *)
  | Cut_refined of { user : string; cuts : (string * string) list }
      (** written by older builds, which ran an anytime refiner; this
          build never writes it, but still replays it. The refiner
          replaced the user's cut with [cuts] — edge (src name, dst
          name) pairs, like snapshot cuts: each names an edge live in
          the base. Sits between a drain's consumed requests and its
          [Drain] mark; replay applies it on sight
          ({!Cdw_engine.Engine.apply_refined}), reproducing the live
          install point. *)

val encode : t -> string
(** Compact (non-pretty) JSON, newline-free. *)

val decode : string -> (t, string) result

val pp : Format.formatter -> t -> unit
(** Test-only: printer for the record tests. *)
