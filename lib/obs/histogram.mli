(** Log-linear bucketed latency histograms (HDR-style).

    Values (milliseconds, or any non-negative quantity) are counted into
    buckets whose boundaries grow log-linearly: each power of two is
    split into {!sub_buckets} equal-width linear sub-buckets, so the
    relative bucket width — and therefore the worst-case quantile
    error — is bounded by [1 / sub_buckets] (~6%) across the whole
    range, from sub-microsecond up to ~400 days. Recording is O(1)
    (a read of the float's bits plus a few integer ops), allocates
    nothing, and the footprint is a fixed ~800-slot int array per
    histogram, so percentiles stay exact-bucket stable at millions of
    samples where a sampling reservoir drifts.

    Bucket 0 collects everything unrepresentable (zero, negatives, NaN);
    the last bucket collects overflow up to +infinity. Every float maps
    to exactly one bucket.

    A histogram is not synchronized: one domain records into it
    ([Cdw_engine.Metrics] keeps one per recording domain). A read
    racing that domain may see a sample counted in {!count} but not
    yet in its bucket; {!percentile} stays in bounds even so. *)

type t

val sub_buckets : int
(** Test-only: the histogram tests check the bucket layout.

    Linear sub-buckets per power of two (16). *)

val n_buckets : int
(** Test-only: the histogram tests check the bucket layout.

    Total bucket count, underflow and overflow included. *)

val create : unit -> t

val record : t -> float -> unit

val count : t -> int
(** Total samples recorded. *)

val sum : t -> float
val min_value : t -> float
(** [infinity] when empty. *)

val max_value : t -> float
(** [neg_infinity] when empty. *)

(** {1 Bucket geometry} *)

val bucket_index : float -> int
(** Test-only: the histogram tests check the bucket layout.

    Total function: every float (NaN, infinities and negatives
    included) maps to exactly one bucket in [0, n_buckets). *)

val bucket_bounds : int -> float * float
(** [(lo, hi)] of a bucket: the half-open value interval [[lo, hi)].
    Bucket 0 is [(neg_infinity, lo₁)], the last bucket ends at
    [infinity]. Consecutive buckets tile: [snd (bounds i) = fst
    (bounds (i+1))]. *)

val nonempty_buckets : t -> (int * int) list
(** [(index, count)] for every bucket with a non-zero count, in index
    order. *)

(** {1 Quantiles} *)

val percentile : t -> float -> float
(** Nearest-rank percentile estimate, [q] in [0, 1]: the midpoint of
    the bucket holding the rank-⌈q·n⌉ sample, clamped to the exact
    [min]/[max]. Within one bucket width of the true order statistic.
    [nan] when empty. *)

val merge_into : into:t -> t -> unit
(** Add every bucket count (and the exact aggregates) of the second
    histogram into [into]. *)
