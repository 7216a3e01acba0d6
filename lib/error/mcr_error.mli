(** Shared rollback-reason vocabulary for the update pipeline.

    Every way a live update can fail and roll back is one constructor of
    {!rollback_reason}. The manager, the replayer, the transfer engine and
    the quiescence barrier all speak this type instead of ad-hoc strings, so
    reports can be matched structurally and the per-reason rollback metrics
    ([mcr_rollback_reason_<reason>_total]) are derived from one place. *)

type conflict_obj = {
  co_kind : string;
      (** Conflict class: ["nonupdatable_changed"], ["no_plan"],
          ["missing_type"], ["pin_overlap"] or ["injected"]. *)
  co_addr : int;  (** Old-version payload address (0 for injected faults). *)
  co_ty : string option;  (** Type tag, when the object was typed. *)
  co_callstack : int;  (** Allocation call-stack ID (0 if n/a). *)
  co_shard : int;  (** Transfer shard that touched it (-1 unsharded). *)
  co_round : int;
      (** Pre-copy round that last staged the object (0 = never staged). *)
  co_detail : string;
}
(** The conflicting object's identity, captured when the conflict was
    detected. Rollback destroys the new version's state, so explanations
    (the flight recorder, [mcr-ctl EXPLAIN]) must never re-derive this after
    the fact — it rides inside {!Tracing_conflict}. *)

type rollback_reason =
  | Program_not_running
      (** Update requested against a manager whose program already exited. *)
  | Quiescence_deadline_exceeded
      (** The old version did not park all threads within the quiescence
          deadline. *)
  | Quiescence_did_not_converge
      (** No deadline was set and the barrier protocol gave up waiting. *)
  | Update_deadline_exceeded
      (** The whole-update deadline elapsed mid-pipeline. *)
  | Startup_crashed  (** The new version crashed during startup replay. *)
  | Startup_not_quiescent
      (** The new version finished startup but never reached its
          pre-requested quiescence barrier. *)
  | Reinit_conflict
      (** Mutable reinitialization conflict: a startup call diverged from
          the recorded log on an immutable object. *)
  | Reinit_not_quiesced
      (** Reinit handler threads did not re-quiesce after running. *)
  | Tracing_conflict of conflict_obj list
      (** Mutable tracing conflict: nonupdatable state changed, a plan or
          type was missing, or an injected transfer fault fired. Carries the
          conflicting objects' identities so post-rollback explanations need
          no live state. *)
  | Precopy_diverged
      (** Pre-copy delta rounds never shrank below the convergence
          threshold within the round budget. *)

val all : rollback_reason list
(** Every constructor, in declaration order (payload-carrying constructors
    with an empty payload). *)

val to_string : rollback_reason -> string
(** Stable human-readable reason, e.g. ["quiescence deadline exceeded"].
    These strings are part of the ctl wire protocol ([ERR <reason>] /
    legacy [FAIL <reason>]) and must not change. *)

val metric_name : rollback_reason -> string
(** The per-reason rollback counter name:
    ["mcr_rollback_reason_" ^ underscored reason ^ "_total"]. *)

val of_string : string -> rollback_reason option
(** Inverse of {!to_string} (payloads come back empty — the wire strings
    carry none). *)

val conflict_objs : rollback_reason -> conflict_obj list
(** The {!Tracing_conflict} payload; [[]] for every other reason. *)

(** [equal a b] is whether both are the same failure mode — payloads are
    ignored. *)
val equal : rollback_reason -> rollback_reason -> bool
val pp : Format.formatter -> rollback_reason -> unit
