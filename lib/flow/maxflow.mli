(** Maximum s–t flow.

    [dinic] is the production algorithm (the one the paper cites for its
    MINCUT oracle); [edmonds_karp] is the independent reference
    implementation the tests cross-check it against. Both mutate the
    network's residuals and return the flow value. *)

val dinic : Flow_net.t -> src:int -> dst:int -> float

val edmonds_karp : Flow_net.t -> src:int -> dst:int -> float
(** Test-only: reference max-flow the tests compare {!dinic} against. *)
