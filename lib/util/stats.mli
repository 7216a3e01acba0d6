(** Small statistics helpers for the benchmark harness.

    The paper repeats every experiment 11 times and reports the median; the
    harness does the same. *)

val median : float list -> float
(** [median xs] is the median of [xs]. Requires [xs] non-empty. *)

val mean : float list -> float
(** Arithmetic mean. Requires non-empty input. *)

val stddev : float list -> float
(** Population standard deviation. Requires non-empty input. *)

val percentile : float -> float list -> float
(** [percentile p xs] for [p] in [\[0,100\]], linear interpolation between
    closest ranks — so [percentile 50.] agrees with {!median} on every
    input. Requires [xs] non-empty. *)

val min_max : float list -> float * float
(** Smallest and largest element. Requires non-empty input. *)

val geometric_mean : float list -> float
(** Geometric mean; used for normalized-overhead summaries. Requires all
    elements positive. *)

val p50 : float list -> float
val p90 : float list -> float

val p99 : float list -> float
(** Percentile shorthands for {!percentile}. Require non-empty input. *)

type summary = {
  n : int;
  mean : float;
  p50 : float;
  p90 : float;
  p99 : float;
  min : float;
  max : float;
}

val summary : float list -> summary
(** One-shot distribution summary of a sample. Requires non-empty input. *)

(** {1 Fixed-bucket integer histograms}

    Shared by the observability metrics registry ({!Mcr_obs.Metrics}) and
    the quiescence profiler: deterministic (fixed bounds, no wall clock),
    mergeable, with nearest-rank percentile estimation that returns the
    upper bound of the bucket containing the rank. *)

type hist = {
  bounds : int array;  (** Strictly increasing bucket upper bounds. *)
  counts : int array;  (** Per-bucket counts; last cell counts overflow. *)
  mutable total : int;
  mutable sum : int;
  mutable vmax : int;  (** Largest value observed (0 when empty). *)
}

val hist_create : bounds:int array -> hist

val default_ns_bounds : int array
(** 1 us .. 10 s — the range virtual-time stage durations fall in. *)

val log_bounds : ?lo:int -> ?hi:int -> ?sub:int -> unit -> int array
(** HDR-style log-bucketed bounds: geometric octaves from [lo] (default
    1 us) up past [hi] (default 10 s), each octave split into [sub]
    (default 8) linear sub-buckets, bounding per-bucket relative error by
    [1/sub] at every magnitude. Fine enough for a meaningful p99.9. *)

val log_ns_bounds : int array
(** [log_bounds ()] — the bounds client-latency histograms use. *)

val hist_observe : hist -> int -> unit

val hist_merge : hist -> hist -> hist
(** Pointwise sum. @raise Invalid_argument when the bounds differ. *)

val hist_percentile : hist -> float -> int
(** [hist_percentile h p] is the upper bound of the bucket holding the
    nearest-rank [p]-th percentile (saturating at the last finite bound);
    0 when the histogram is empty. *)

type hist_summary = {
  count : int;
  p50_ns : int;
  p90_ns : int;
  p99_ns : int;
  p999_ns : int;
  max_ns : int;
}

val hist_summary : hist -> hist_summary
(** One-shot tail summary (p50/p90/p99/p99.9/max) of a histogram. *)
