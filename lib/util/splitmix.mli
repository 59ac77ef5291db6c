(** SplitMix64 pseudo-random number generator.

    Deterministic, seedable and fast. Substitutes the Python standard
    library generator used by the paper's implementation; experiments are
    reproducible given the seed. *)

type t

val create : int -> t
(** [create seed] is a fresh generator. Equal seeds give equal streams. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound). [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [lo, hi] inclusive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [0, bound). *)

val bool : t -> bool
(** Test-only: draws the property tests' random instances. *)

val state : t -> int64
(** The full internal state — one word. With {!set_state} this lets a
    generator be captured and resumed exactly (session eviction parks
    the rng alongside the constraint state, so rehydration is
    observably transparent even for randomized solvers). *)

val set_state : t -> int64 -> unit
(** Rewind (or fast-forward) an existing generator to a {!state}
    capture, in place — for generators aliased inside closures that
    cannot be swapped for a fresh value. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val pick_list : t -> 'a list -> 'a
(** Test-only: draws the shard tests' random scripts.

    Uniform element of a non-empty list. *)
