(** Parked OCaml 5 domains: one worker primitive, two scheduling
    policies over it.

    A {!Worker} is a domain that parks on a condition variable between
    jobs and runs one job at a time from a one-slot mailbox. Both drain
    paths of the serving group are built on it:
    - {e pinned}: an N-shard group keeps one worker per shard and sends
      every drain of that shard to it;
    - {e work-stealing}: a pool ({!t}) parks [domains - 1] helper
      workers, and {!run} has them race the calling domain down one
      atomic counter over a task array. The one-shard group drains its
      engine this way, one task per user batch.

    Parking instead of spawning matters because a spawn plus a join
    costs about ten times a handoff to a parked domain, and a drain
    that fans out pays it every time.

    Lifecycle of a pool: {!create} makes the helpers' mailboxes and
    spawns nothing; the first {!run} with two or more tasks spawns the
    helpers it needs, which then stay parked between runs; {!close}
    stops and joins them. A parked domain
    still takes part in every minor collection, so a pool must be
    closed once its owner stops draining. A closed pool may run again:
    it respawns its helpers on demand. *)

(** {1 Workers} *)

module Worker : sig
  type 'a t
  (** A parked domain whose jobs return ['a], with a one-slot mailbox.
      Its domain is spawned by {!start} (or the first {!send}) and
      joined by {!stop}; a later {!send} spawns it again. One thread controls a worker:
      it alone calls {!send}, {!await} and {!stop}. *)

  val create : ?on_idle:(float -> unit) -> init:(unit -> unit) -> unit -> 'a t
  (** The mailbox; no domain yet. On each spawn the new domain runs
      [init] once, then parks. [init] allocates the per-domain state
      its jobs record into (the {!Cdw_obs.Trace} buffer), so that
      one-time cost never lands in a measured span. [on_idle us]
      runs on the worker's domain each time it takes a job or the stop
      order, with the µs it spent parked before it. *)

  val start : 'a t -> unit
  (** Spawn the worker's domain if none runs. A caller that hands jobs
      to several workers starts them all first, so a failed spawn
      ([Failure] past the runtime's domain limit) leaves no job
      outstanding. *)

  val send : 'a t -> (unit -> 'a) -> unit
  (** Hand the worker one job, {!start}ing it first. At most one job
      is outstanding per worker: {!await} it before sending the
      next. *)

  val await : 'a t -> ('a, exn) result
  (** Block until the outstanding job finishes; its result, or the
      exception it raised. *)

  val stop : 'a t -> unit
  (** If a domain runs, stop it once it is parked and join it. Call
      with no job outstanding. *)
end

(** {1 Work-stealing pool} *)

type t

val create : ?domains:int -> unit -> t
(** Test-only: [?domains] lets the pool tests fix the width whatever
    the host's core count.

    A pool [domains] wide, the calling domain included. The default is
    [Domain.recommended_domain_count] clamped to [1, 8]: consent solving
    saturates memory bandwidth long before it saturates a large core
    count. No domain is spawned until a {!run} needs one. *)

val domains : t -> int
(** The pool's width, the calling domain included. *)

val run : t -> (unit -> 'a) array -> 'a array
(** Execute every task, returning results in task order. With a width
    of 1, or fewer than two tasks, everything runs on the calling
    domain. Otherwise the calling domain and up to [domains - 1]
    helpers claim tasks from one counter. If tasks raise, the
    exception of the lowest-indexed failing task is re-raised after
    every helper has finished the batch, and the pool stays usable.
    Runs on one pool must not overlap, and a task must not run its own
    pool. *)

val close : t -> unit
(** Stop and join every helper. Call with no {!run} in progress. *)
