(** Summary statistics for experiment measurements.

    The paper reports means with standard errors over ≥30 runs. *)

type summary = {
  n : int;
  mean : float;
  std : float;  (** sample standard deviation (n-1 denominator) *)
  se : float;  (** standard error of the mean *)
  min : float;
  max : float;
}

val summarize : float list -> summary
(** Raises [Invalid_argument] on the empty list. *)
