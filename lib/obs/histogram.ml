module Json = Cdw_util.Json

(* Log-linear geometry: values in [2^(e-1), 2^e) split into [sub_buckets]
   equal linear slices. [frexp v = (m, e)] with m ∈ [0.5, 1) lands v in
   exponent bucket e; the mantissa picks the slice. Exponents outside
   [e_min, e_max] clamp into the underflow/overflow buckets. *)

let sub_buckets = 16
let e_min = -13 (* 2^-14 ms ≈ 61 ns: finer than anything we time *)
let e_max = 35 (* 2^35 ms ≈ 397 days *)
let n_buckets = ((e_max - e_min + 1) * sub_buckets) + 2

(* The float aggregates sit in a record of floats only, which OCaml
   stores unboxed: recording a sample allocates nothing. *)
type aggregates = {
  mutable sum : float;
  mutable minv : float;
  mutable maxv : float;
}

type t = { mutable count : int; agg : aggregates; counts : int array }

let create () =
  {
    count = 0;
    agg = { sum = 0.0; minv = infinity; maxv = neg_infinity };
    counts = Array.make n_buckets 0;
  }

let count t = t.count
let sum t = t.agg.sum
let min_value t = t.agg.minv
let max_value t = t.agg.maxv

let bucket_index v =
  if Float.is_nan v || v <= 0.0 then 0
  else if v = infinity then n_buckets - 1
  else
    (* [frexp v = (m, e)] read off the IEEE bits, since [Float.frexp]'s
       tuple would allocate per sample: with biased exponent E and
       fraction f, v = 1.f · 2^(E-1023) = m · 2^e for e = E - 1022, and
       the slice floor((m - 0.5) · 2 · sub_buckets) is the top
       log2(sub_buckets) = 4 bits of f. A subnormal (E = 0) lands
       below e_min. *)
    let top =
      Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float v) 48)
    in
    let e = (top lsr 4) - 1022 in
    if e < e_min then 0
    else if e > e_max then n_buckets - 1
    else 1 + ((e - e_min) * sub_buckets) + (top land (sub_buckets - 1))

let bucket_bounds i =
  if i < 0 || i >= n_buckets then invalid_arg "Histogram.bucket_bounds"
  else
    (* Lower bound of the k-th regular bucket (k from 0):
       2^(e-1) · (1 + s/sub) for e = e_min + k/sub, s = k mod sub. *)
    let lower k =
      let e = e_min + (k / sub_buckets) in
      let s = k mod sub_buckets in
      Float.ldexp (1.0 +. (float_of_int s /. float_of_int sub_buckets)) (e - 1)
    in
    if i = 0 then (neg_infinity, lower 0)
    else if i = n_buckets - 1 then (lower (i - 1), infinity)
    else (lower (i - 1), lower i)

let record t v =
  let a = t.agg in
  t.count <- t.count + 1;
  a.sum <- a.sum +. v;
  if v < a.minv then a.minv <- v;
  if v > a.maxv then a.maxv <- v;
  let i = bucket_index v in
  t.counts.(i) <- t.counts.(i) + 1

let nonempty_buckets t =
  let acc = ref [] in
  for i = n_buckets - 1 downto 0 do
    if t.counts.(i) > 0 then acc := (i, t.counts.(i)) :: !acc
  done;
  !acc

let percentile t q =
  if t.count = 0 then nan
  else
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let target = max 1 (int_of_float (Float.ceil (q *. float_of_int t.count))) in
    (* The last bucket stops the walk even short of [target]: a
       histogram read while another domain records into it can count
       a sample before its bucket does. *)
    let rec find i cum =
      let cum = cum + t.counts.(i) in
      if cum >= target || i = n_buckets - 1 then i else find (i + 1) cum
    in
    let i = find 0 0 in
    let lo, hi = bucket_bounds i in
    let estimate =
      if lo = neg_infinity then t.agg.minv
      else if hi = infinity then t.agg.maxv
      else (lo +. hi) /. 2.0
    in
    Float.max t.agg.minv (Float.min t.agg.maxv estimate)

let merge_into ~into t =
  let a = into.agg and b = t.agg in
  into.count <- into.count + t.count;
  a.sum <- a.sum +. b.sum;
  if b.minv < a.minv then a.minv <- b.minv;
  if b.maxv > a.maxv then a.maxv <- b.maxv;
  Array.iteri (fun i c -> into.counts.(i) <- into.counts.(i) + c) t.counts
