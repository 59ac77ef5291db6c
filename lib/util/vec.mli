(** Growable arrays (OCaml 5.1 has no [Dynarray]).

    A [Vec.t] is a mutable sequence with amortised O(1) [push] and O(1)
    random access. Indices are checked; out-of-range access raises
    [Invalid_argument]. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** Fresh empty vector. [capacity] pre-allocates backing storage. *)

val length : 'a t -> int

val get : 'a t -> int -> 'a

val set : 'a t -> int -> 'a -> unit

val push : 'a t -> 'a -> unit
(** Append one element at the end. *)

val iter : ('a -> unit) -> 'a t -> unit

val to_array : 'a t -> 'a array

val copy : 'a t -> 'a t
