(** Push–relabel maximum flow (FIFO selection with the gap heuristic).

    A third, algorithmically independent max-flow implementation used to
    cross-validate {!Maxflow.dinic} and {!Maxflow.edmonds_karp} in the
    property tests, and competitive on the dense networks of
    dataset 1c. *)

val max_flow : Flow_net.t -> src:int -> dst:int -> float
(** Test-only: reference max-flow the tests compare {!Maxflow.dinic} against.

    Mutates the network's residuals like the other algorithms. *)
