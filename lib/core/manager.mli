(** The MCR runtime: checkpoint → restart → restore, atomically.

    A manager owns one running MCR-enabled program (all its processes). The
    update path follows Section 3:

    + {b Checkpoint}: request quiescence on every process barrier and run
      the system until all long-lived threads are parked.
    + {b Restart}: launch the new version with quiescence pre-requested (so
      it accepts no external events), install the inherited descriptors,
      and replay the old startup logs through mutable reinitialization.
    + {b Restore}: pair old and new processes by creation identity, run
      mutable tracing per pair (in parallel — the clock is charged the
      maximum pair cost), transfer post-startup descriptors, run the
      version's reinit handlers to re-create volatile quiescent states, and
      transfer any processes those handlers created.
    + {b Commit} (release the new version, terminate the old) or
      {b rollback} (terminate the new version, resume the old) — clients
      never observe a failed update.

    {b Pre-copy.} With {!Policy.t.precopy} enabled the stage order changes:
    the new version is launched and replayed {e while the old version keeps
    serving}, then iterative pre-copy rounds speculatively trace the old
    version's reachable graph and stage content hashes
    ({!Mcr_trace.Transfer.precopy_round}); only when the delta staged by a
    round falls under {!Policy.t.precopy_threshold_words} does quiescence
    open the service-interruption window, inside which the unchanged
    single-shot transfer runs with the staged work prepaid. The committed
    image is byte-for-byte the single-shot result, and a failure before the
    window opens costs zero downtime. If no round converges within
    {!Policy.t.precopy_max_rounds}, the update rolls back with
    {!Mcr_error.Precopy_diverged}.

    Managers also expose the controller channel ([mcr-ctl]) and the
    measurement hooks the benchmark harness consumes.

    {b Observability}: every manager owns a {!Mcr_obs.Metrics} registry
    (always on — snapshots are attached to each update {!report} and served
    over the control socket by the [STATS] command), and optionally an
    {!Mcr_obs.Trace} sink ([?trace] at {!launch}) into which the update
    pipeline emits nested stage spans ([update] ⊃ [quiesce],
    [restart_replay], [precopy] (with per-round [precopy.round] instants),
    [state_transfer] ⊃ per-pair [transfer.pair], [commit]/[rollback]) and
    the instrumented layers emit their instants. The sink is threaded
    through to the barriers, the replayer, the object graph analysis and
    the transfer engine of both program versions. Tracing never charges
    virtual time, so enabling it changes no measured number. *)

type t

val protocol_version : int
(** Version of the control-socket protocol this manager speaks (see
    {!Ctl.request_v} and doc/OBSERVABILITY.md for the wire format). *)

val launch :
  Mcr_simos.Kernel.t ->
  ?instr:Mcr_program.Instr.t ->
  ?profiler:Mcr_quiesce.Profiler.t ->
  ?trace:Mcr_obs.Trace.t ->
  ?policy:Policy.t ->
  Mcr_program.Progdef.version ->
  t
(** Launch an MCR-enabled program: loads the version, starts startup-log
    recording, arms per-process first-quiescence processing (heap startup
    end + soft-dirty epoch), and spawns the controller thread listening on
    [ctl_path]. Drive the kernel afterwards ({!wait_startup}). [?trace]
    enables event tracing for this manager and every manager descended
    from it by updates.

    [?policy] sets the manager's update policy ({!Policy.t}, default
    {!Policy.default}); it is shared across the manager lineage and can be
    changed at runtime over the control socket ([DEADLINES], [RETRY],
    [FAULT], [PRECOPY] — see {!Ctl}). It is the only spelling: the record
    with its builders replaced the per-field optional arguments. If a
    stale control-socket file is left at [ctl_path] by an earlier unclean
    exit, it is unlinked before binding. *)

val kernel : t -> Mcr_simos.Kernel.t
val root_proc : t -> Mcr_simos.Kernel.proc
val root_image : t -> Mcr_program.Progdef.image
val version : t -> Mcr_program.Progdef.version
val images : t -> Mcr_program.Progdef.image list
(** All live process images of the program, root first. *)

val ctl_path : t -> string
(** Unix-socket path of the controller ("/run/mcr/<prog>.sock"). *)

val wait_startup : t -> ?max_ns:int -> unit -> bool
(** Run the kernel until the root process completes startup (reaches its
    first quiescent point). *)

val update_requested : t -> bool
(** An [mcr-ctl] client asked for an update (see {!Ctl}). *)

val policy : t -> Policy.t
(** The manager's current update policy (shared across the lineage). *)

val set_policy : t -> Policy.t -> unit
(** Replace the lineage's policy — the programmatic equivalent of the
    control-socket policy commands. *)

(** {1 Observability} *)

val trace : t -> Mcr_obs.Trace.t option
(** The event sink passed at {!launch}, if any. *)

val metrics : t -> Mcr_obs.Metrics.t
(** The manager's metrics registry. Shared across updates: the manager
    returned by a successful {!update} keeps the same registry, so counters
    accumulate over the whole lineage. *)

val metrics_snapshot : t -> Mcr_obs.Metrics.snapshot
(** Deterministic snapshot of the registry (refreshes the process gauge
    first). *)

val flight_records : t -> Mcr_obs.Flight.record list
(** The lineage's flight-recorder ring: one {!Mcr_obs.Flight.record} per
    update attempt, newest first, capped at 32. The same ring serves
    [mcr-ctl EXPLAIN [LAST|<n>]] ([n] = 1 is the newest record). *)

(** {1 Live update} *)

type report = {
  success : bool;
  quiesce_ns : int;
  control_migration_ns : int;
  state_transfer_ns : int;
  total_ns : int;
  downtime_ns : int;
      (** Service interruption: virtual time from the quiescence request
          that opened the window to the end of the update. Equal to
          [total_ns] for single-shot updates; with pre-copy it covers only
          the final delta (0 if the update failed before the window
          opened). *)
  precopy_rounds : int;  (** Pre-copy rounds run (0 when disabled). *)
  precopy_bytes : int;  (** Bytes staged across all pre-copy rounds. *)
  replayed_calls : int;
  live_calls : int;
  replay_conflicts : Mcr_replay.Replayer.conflict list;
  transfer_conflicts : Mcr_trace.Transfer.conflict list;
  transfers : (Mcr_replay.Logdefs.proc_key * Mcr_trace.Transfer.outcome) list;
  failure : Mcr_error.rollback_reason option;
      (** Rollback cause ({!Mcr_error.to_string} renders the frozen
          human-readable form). *)
  metrics : Mcr_obs.Metrics.snapshot;
      (** Registry snapshot taken when the update finished (every exit
          path, success or rollback). *)
  flight : Mcr_obs.Flight.record;
      (** The attempt's flight record: downtime attribution (components sum
          to [downtime_ns] exactly), rollback explanation (stage, frozen
          reason, conflicting objects, fired fault points, retry lineage)
          and SLO evaluation. Also appended to {!flight_records}. *)
  parked_requests : int;
      (** Connections parked by this attempt ({!Policy.t.request_parking};
          0 with parking off). Conservation: [parked_requests =
          resumed_requests + aborted_requests] on every exit path — the
          attempt never strands a parked connection. *)
  resumed_requests : int;
      (** Parked connections moved into the surviving version's accept
          backlog when the attempt ended (commit or rollback). *)
  aborted_requests : int;
      (** Parked connections whose listener died before unpark. *)
  client_latency : Mcr_util.Stats.hist_summary option;
      (** Client-observed request-latency tail (p50/p90/p99/p99.9/max) from
          the [mcr_request_latency_ns] histogram, when a load driver
          ({!Mcr_workloads.Loadgen}) is feeding one into this manager's
          registry. *)
}

val update :
  t ->
  ?policy:Policy.t ->
  ?fault:Mcr_fault.Fault.t ->
  ?on_precopy_round:(int -> unit) ->
  Mcr_program.Progdef.version ->
  t * report
(** [update t v2] performs a live update. On success the returned manager
    owns the new version (the old processes are terminated); on rollback it
    is [t] itself and the old version has resumed. Updating a manager whose
    processes are gone (already updated away from, or fully crashed) fails
    with a report, touching nothing.

    {b Policy.} [?policy] overrides the manager's stored policy for this
    call only; with no override the stored policy applies. Per-field
    tweaks are spelled with the {!Policy} builders
    ([Policy.with_dirty_only false (Manager.policy t)] and friends).

    {b Checkpoint images.} When the effective policy carries
    {!Policy.t.image_dir}, the attempt snapshots a persistent checkpoint
    image ({!Mcr_image.Image}) of the old version at its quiescent point
    and writes it to [<dir>/<prog>-update-<seq>.mcrimg] with the
    attempt's flight record attached — on success {e and} on rollback
    (a rolled-back attempt's image is the input to
    [mcr-postmortem --replay]).

    {b Deadlines.} [quiesce_deadline_ns] bounds the checkpoint stage;
    blowing it rolls back with {!Mcr_error.Quiescence_deadline_exceeded}.
    [update_deadline_ns] bounds the whole update (virtual time from the
    call); blowing it rolls back with
    {!Mcr_error.Update_deadline_exceeded}, which takes precedence over the
    quiescence reason when both apply. With no deadlines set, a
    non-converging quiescence fails with
    {!Mcr_error.Quiescence_did_not_converge} after the built-in 5 s budget.
    Every rollback increments both [mcr_rollbacks_total] and the
    per-reason counter {!Mcr_error.metric_name}.

    {b Retry.} [retries] > 0 re-attempts a failed update up to that many
    times, sleeping [retry_backoff_ns] × attempt between tries (virtual
    time) and counting [mcr_update_retries_total]. The fault plan is shared
    across attempts, so faults consumed by an attempt do not re-fire.

    {b Fault injection.} [?fault] threads a {!Mcr_fault.Fault} plan through
    the pipeline (see [doc/FAULTS.md]); when unset, a policy
    {!Policy.t.fault_seed} arms {!Mcr_fault.Fault.of_seed}.

    {b Pre-copy.} With policy [precopy = true] the stage order changes as
    described above; [?on_precopy_round] is invoked after each round's
    speculative cost has elapsed (tests use it to mutate the still-serving
    old version deterministically between rounds). *)

(** {1 Persistent checkpoint images}

    Host-side spellings of the control-socket [SAVE <path>] /
    [RESTORE <path>] commands (see {!Frame.command}): quiesce the program,
    capture or install a {!Mcr_image.Image}, release. *)

val save_image : t -> path:string -> (Mcr_image.Image.t, string) result
(** Quiesce, snapshot a persistent checkpoint image with the manager's
    current policy embedded, write it to [path] on the {e host}
    filesystem, release. *)

val restore_image :
  t -> Mcr_image.Image.t -> (Mcr_image.Image.install_report, string) result
(** Quiesce, install the image in place over the manager's live processes
    (same program and version required; see {!Mcr_image.Image.install}),
    release. The program resumes serving with the image's exact memory,
    dirty-tracking and allocator state. *)

(** {1 Measurement hooks} *)

val quiesce_only : t -> int option
(** Run the quiescence protocol, measure convergence (virtual ns), then
    release. [None] if convergence failed. *)

val trace_statistics : t -> Mcr_trace.Objgraph.stats
(** Aggregate mutable-tracing statistics over all live processes (the
    Table 2 numbers). Read-only: quiesces nothing, transfers nothing. *)

type memory_stats = {
  app_bytes : int;  (** Touched application pages (the program's own RSS). *)
  mcr_bytes : int;
      (** Modeled MCR footprint: the preloaded runtime library per process,
          the in-memory startup log, and the (deliberately space-inefficient,
          Section 8) relocation/data-type tag records. *)
  resident_bytes : int;  (** [app_bytes + mcr_bytes]. *)
  tag_metadata_words : int;  (** In-band allocator metadata words. *)
  startup_log_entries : int;
  processes : int;
}

val memory_stats : t -> memory_stats
