(* A Treiber stack of immutable list cells. The stack holds items in
   reverse push order; [take_all] swaps the whole stack out with one
   atomic exchange and reverses, which is both the cheapest possible
   consume (no per-item CAS) and the reason the consumer sees a
   consistent prefix: everything pushed before the exchange, nothing
   after. *)

type 'a t = 'a list Atomic.t

let create () = Atomic.make []

let rec push t x =
  let cur = Atomic.get t in
  if not (Atomic.compare_and_set t cur (x :: cur)) then push t x

let take_all t = List.rev (Atomic.exchange t [])
