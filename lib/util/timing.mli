(** Wall-clock timing helpers for the experiment harness.

    Timeouts are cooperative: long-running algorithms receive an absolute
    deadline and call [check_deadline] at safe points. *)

exception Timeout

val now_ms : unit -> float

val time_f : (unit -> 'a) -> 'a * float
(** [time_f f] runs [f ()] and returns its result together with the
    elapsed wall-clock time in milliseconds. *)

val deadline_after_ms : float -> float
(** Absolute deadline [now + budget] (in ms). [infinity] never fires. *)

val check_deadline : float -> unit
(** Raise [Timeout] once the absolute deadline is reached, so a zero
    budget is spent before the first check. *)
