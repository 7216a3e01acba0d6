(** The fleet coordinator: N instances of one server program, each in its
    own simulated kernel with its own {!Mcr_core.Manager} lineage, fronted
    by a {!Balancer} and a dedicated control-plane kernel serving the
    {!Mcr_core.Frame.fleet_command} family over the v1 ctl protocol
    ({!Mcr_core.Ctl_server} on [/run/mcr/fleet.<prog>.sock]).

    This is the cluster-level coordinator layered {e above} the
    per-process MCR mechanism (the DMTCP lesson): the fleet never reaches
    into an instance's update pipeline — it only calls
    {!Mcr_core.Manager.update} per instance, reads the flight record each
    update produces, and lets {!Rollout} gate waves on those verdicts.

    Every instance is a fully independent deterministic simulation, so a
    fleet of identical instances commits byte-identical images —
    {!image_fingerprint} is the property test's witness. *)

type t

val create :
  ?policy:Fleet_policy.t ->
  ?relaunch:(int -> version_tag:string -> (Mcr_simos.Kernel.t * Mcr_core.Manager.t, string) result) ->
  prog:string ->
  n:int ->
  spawn:(int -> Mcr_simos.Kernel.t * Mcr_core.Manager.t) ->
  health:(Mcr_simos.Kernel.t -> Mcr_core.Manager.t -> bool) ->
  target:(int -> Mcr_program.Progdef.version) ->
  revert:(int -> Mcr_program.Progdef.version) ->
  unit ->
  t
(** [create ~prog ~n ~spawn ~health ~target ~revert ()] builds the fleet:
    [spawn i] must launch instance [i] (fresh kernel, settled manager);
    [health k m] probes whichever version the manager currently serves;
    [target i]/[revert i] name the rollout's destination and the halt
    policy's fallback version. Also creates the control-plane kernel and
    its listener.

    [?relaunch i ~version_tag] must launch a {e fresh} settled instance
    running exactly the named version — {!migrate_instance} and
    {!arm_standby} restore checkpoint images into it. Defaults to [spawn]
    (sufficient while the instance still runs its spawned version).
    @raise Invalid_argument if [n] is below 1. *)

val of_testbed :
  ?policy:Fleet_policy.t -> ?config:string -> Mcr_workloads.Testbed.server -> n:int -> t
(** A fleet of [n] identical {!Mcr_workloads.Testbed} instances: target is
    the server's final version, revert its base version, health a scaled
    {!Mcr_workloads.Testbed.benchmark} probe requiring zero errors
    (4 requests). *)

(** {1 Introspection} *)

val prog : t -> string
val size : t -> int
val policy : t -> Fleet_policy.t
val set_policy : t -> Fleet_policy.t -> unit
val balancer : t -> Balancer.t

val serving : t -> int
(** Instances in balancer rotation (= [Balancer.serving (balancer t)]). *)

val manager : t -> int -> Mcr_core.Manager.t
(** Instance [i]'s current manager (changes when an update commits). *)

val instance_kernel : t -> int -> Mcr_simos.Kernel.t

val version_tag : t -> int -> string
(** The version instance [i] currently runs. *)

val target_tag : t -> int -> string

val image_fingerprint : t -> int -> int
(** [Image.aspace_fingerprint] of instance [i]'s root-process address
    space: every region's name, base and size, and each page holding a
    non-zero word with its address. Identical deterministic instances
    hash identically; the test suite uses this as the
    byte-identical-commit witness. *)

val last_summary : t -> Mcr_obs.Fleet_flight.t option
(** The most recent rollout's fleet flight summary (served by
    [FLEET EXPLAIN]). *)

val status_text : t -> string
(** The [FLEET STATUS] payload: fleet headline, policy knobs, one line per
    instance (version and balancer state), and — once any instance has
    request-latency observations — the fleet-wide client-latency tail
    ({!client_latency}). *)

val client_latency : t -> Mcr_obs.Metrics.hist_snapshot option
(** The [mcr_request_latency_ns] histograms of every instance manager's
    registry, merged ({!Mcr_obs.Metrics.hist_snapshot_merge}) into the
    fleet-wide client-perceived latency distribution; [None] until some
    instance has observations (e.g. an open-loop {!Mcr_workloads.Loadgen}
    started with that manager's registry). *)

val metrics : t -> Mcr_obs.Metrics.t
(** The fleet-level registry ([mcr_fleet_*] instruments). Independent of
    the per-instance manager registries. *)

val metrics_snapshot : t -> Mcr_obs.Metrics.snapshot

(** {1 Checkpoint images}

    Migration and warm-standby failover on top of
    {!Mcr_image.Image}: the control-socket spellings are
    [FLEET SAVE <i> <path>] (quiesce instance [i] and write its image to
    the host [path], {!Mcr_core.Manager.save_image}) and
    [FLEET MIGRATE <i> <path>]. *)

val migrate_instance : t -> int -> path:string -> (int, string) result
(** Move instance [i] onto a fresh kernel through an on-disk image: drain
    it out of rotation (in-flight work finishes in its own virtual time),
    save its image to [path], [relaunch] the image's version, install the
    on-disk bytes over it, swap the fresh instance into slot [i] and
    rejoin the balancer. Returns the verified fingerprint; on any failure
    the original instance returns to its previous balancer state and the
    fleet is unchanged. The drained kernel is abandoned. *)

type standby
(** A pre-restored instance held out of rotation: a fresh kernel already
    carrying a checkpoint of its primary, waiting for {!failover_instance}. *)

val arm_standby : t -> int -> (standby, string) result
(** Capture instance [i] at quiescence (no host file involved) and restore
    the image into a freshly relaunched instance kept out of the
    balancer. The primary keeps serving. *)

val standby_fingerprint : standby -> int
(** The fingerprint the standby was verified against when armed. *)

val failover_instance : t -> int -> standby -> (int, string) result
(** Replace instance [i] with its armed standby: the (presumed failed)
    primary is abandoned, the standby takes slot [i] and enters rotation.
    Returns the standby's fingerprint. Fails if the standby was armed for
    a different instance. *)

(** {1 Coordinator-side hooks (used by {!Rollout})} *)

val drain_ns : int
(** Virtual time the balancer drains an instance before its update window
    opens or its migration starts (50 ms). *)

val update_instance : t -> int -> [ `Target | `Revert ] -> Mcr_core.Manager.report
(** Run one live update on instance [i]'s own kernel and swap in the
    returned manager. [`Target] applies the fleet policy's update policy,
    with [Mcr_fault.Fault.of_seed (seed + i)] armed when the policy's
    fault seed covers [i]; [`Revert] applies it with faults disarmed.
    Counts [mcr_fleet_instance_updates_total] /
    [mcr_fleet_instance_rollbacks_total]. *)

val healthy : t -> int -> bool
(** Run the health probe against instance [i]'s current version. *)

val refresh_serving : t -> unit
(** Re-read the balancer into the [mcr_fleet_serving] gauge — call after
    changing backend states. *)

val note_wave : t -> outcome:[ `Promoted | `Halted | `Rollback ] -> duration_ns:int -> unit
(** Record a finished wave: observes [mcr_fleet_wave_duration_ns] and
    counts [mcr_fleet_wave_promotions_total] / [mcr_fleet_wave_halts_total]
    ([`Rollback] waves count neither). *)

val record_rollout : t -> Mcr_obs.Fleet_flight.t -> unit
(** Store the summary for [FLEET EXPLAIN], settle the rollout-level
    metrics (rollouts, halts, reverted instances, routed requests,
    client-visible errors) and answer a parked [FLEET ROLLOUT] with
    [OK HALTED] or [OK COMPLETED] ({!Mcr_core.Ctl_server.respond}, which
    drives the control-plane kernel briefly so the listener writes it). *)

(** {1 Control plane} *)

val ctl_kernel : t -> Mcr_simos.Kernel.t
(** The control-plane kernel the [FLEET] listener runs in — distinct from
    every instance kernel; drive it to deliver ctl traffic. *)

val ctl_path : t -> string
(** ["/run/mcr/fleet.<prog>.sock"]. *)

val rollout_requested : t -> bool
(** A [FLEET ROLLOUT] client is parked on its reply — the signal the host
    loop (or {!Rollout.request_over_ctl}) uses to run {!Rollout.execute},
    whose {!record_rollout} answers it. *)
