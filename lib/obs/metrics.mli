(** The metrics half of the observability subsystem: a registry of named
    counters, gauges, and fixed-bucket histograms.

    Deterministic by construction: instruments hold plain integers fed from
    virtual-time measurements, snapshots list entries sorted by name, and
    [diff] is pure arithmetic — so snapshots of two identical runs are
    structurally equal, and a snapshot can ride inside a
    {!Mcr_core.Manager.report} or cross the [mcr-ctl] socket as text
    without breaking reproducibility. *)

type t
(** A registry. Registering the same name twice returns the existing
    instrument; re-registering a name with a different kind raises
    [Invalid_argument]. *)

val create : unit -> t

type counter
type gauge
type histogram

val counter : t -> string -> counter
val incr : ?by:int -> counter -> unit
val counter_value : counter -> int

val gauge : t -> string -> gauge
val set : gauge -> int -> unit

val histogram : t -> ?bounds:int array -> string -> histogram
(** Default bounds: {!Mcr_util.Stats.default_ns_bounds}. *)

val observe : histogram -> int -> unit

(** {1 Snapshots} *)

type hist_snapshot = {
  bounds : int array;
  counts : int array;  (** Length [bounds + 1]; last cell is overflow. *)
  total : int;
  sum : int;
  vmax : int;  (** Largest value observed (0 when empty). *)
}

type snapshot = {
  counters : (string * int) list;  (** Sorted by name. *)
  gauges : (string * int) list;
  histograms : (string * hist_snapshot) list;
}

val snapshot : t -> snapshot

val diff : latest:snapshot -> earlier:snapshot -> snapshot
(** Per-interval view: counters and histogram cells subtract, gauges keep
    their latest value. Entries missing from [earlier] pass through. *)

val find_counter : snapshot -> string -> int option
val find_gauge : snapshot -> string -> int option
val find_histogram : snapshot -> string -> hist_snapshot option

val hist_snapshot_merge : hist_snapshot -> hist_snapshot -> hist_snapshot
(** Pointwise sum (counts, total, sum; max of maxima) — aggregating one
    instrument across registries, e.g. per-instance request-latency
    histograms into a fleet-wide tail.
    @raise Invalid_argument when the bounds differ. *)

val hist_snapshot_percentile : hist_snapshot -> float -> int

val hist_snapshot_summary : hist_snapshot -> Mcr_util.Stats.hist_summary
(** Tail summary (p50/p90/p99/p99.9/max) of a snapshotted histogram. *)

val render : snapshot -> string
(** Plain-text rendering (via {!Mcr_util.Tablefmt}) — the payload of the
    [mcr-ctl STATS] reply. *)
