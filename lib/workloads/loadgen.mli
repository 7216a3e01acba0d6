(** Open-loop Poisson-arrival load driver.

    Unlike the closed-loop benchmark clients ({!Http_bench} etc.), which
    under-report update stalls through coordinated omission, this driver
    draws every request's arrival time up front from a seeded exponential
    inter-arrival stream and measures latency from the {e scheduled}
    arrival — so an update window is charged to every request it delayed,
    which is what a client fleet actually observes at p99/p99.9.

    All client processes are pre-spawned (spawning costs virtual time)
    and sleep until their scheduled arrival, the sleep being each client
    thread's first call, made before it has a fiber; the driver sustains
    10k+ concurrent in-flight requests on the virtual clock. Each request
    is stamped submit / first-byte / complete in its {!record}, and its
    latency goes into an HDR-style log-bucketed histogram
    ({!Mcr_util.Stats.log_ns_bounds}), optionally mirrored into
    a metrics registry as [mcr_request_latency_ns] (plus
    [mcr_requests_issued/completed/errored_total] and the
    [mcr_requests_in_flight] gauge) and emitted as [request.*] trace
    spans (category ["request"]).

    Determinism: same seed, same kernel state — identical arrival
    schedule, identical records and histogram. *)

type t

type record = {
  rq_id : int;
  rq_scheduled_ns : int;  (** Open-loop submit instant (absolute). *)
  rq_first_byte_ns : int;  (** First server byte; -1 if none arrived. *)
  rq_complete_ns : int;
  rq_retries : int;  (** ECONNREFUSED-driven reconnect attempts. *)
  rq_ok : bool;
}

val start :
  Mcr_simos.Kernel.t ->
  server:Testbed.server ->
  ?seed:int ->
  ?metrics:Mcr_obs.Metrics.t ->
  ?trace:Mcr_obs.Trace.t ->
  rate:int ->
  requests:int ->
  unit ->
  t
(** Spawn [requests] client processes arriving at [rate] requests per
    second of virtual time (Poisson). Returns immediately; the clients run
    whenever the kernel is driven (including inside [Manager.update]).
    Pass the manager's registry as [metrics] to surface request latency in
    [mcr-ctl STATS] and [Manager.report]; give the driver its own [trace]
    sink so request spans don't evict update-pipeline spans. *)

val drive : ?max_s:int -> t -> unit
(** Run the kernel until every client process has exited (bounded by
    [max_s] virtual seconds, default 3600). *)

val issued : t -> int
val completed : t -> int
val errored : t -> int

val refused_retries : t -> int
(** Total ECONNREFUSED reconnect attempts across all requests — the
    retry-storm signal request parking exists to eliminate. *)

val peak_in_flight : t -> int
(** High-water mark of concurrently outstanding requests under the
    open-loop definition: a request is outstanding from its {e scheduled}
    arrival until completion (max-overlap sweep over the records), the
    same no-coordinated-omission rule the latency stamps follow. *)

val summary : t -> Mcr_util.Stats.hist_summary
(** Tail summary of the scheduled-arrival -> completion histogram. *)

val exact_percentile : t -> float -> int
(** Exact percentile over the per-request records (no bucket error) —
    use for comparisons too fine for the histogram's bucket width. *)

val records : t -> record list
(** Per-request stamps for completed requests, in request-id order. *)

val requests_json : t -> string
(** {!records} in [mcr-postmortem --requests] dialect
    ({!Mcr_obs.Client_impact.reqs_to_json}): pair with the update's flight
    record to attribute stalled requests to waterfall segments. *)

val latency_metric : string
(** The registry histogram name ([mcr_request_latency_ns]). *)

val total : t -> int
