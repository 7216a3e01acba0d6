(** The update flight recorder.

    One {!record} per [Manager.update] attempt, assembled by the manager on
    every exit path — commit and rollback alike — and kept in a bounded
    per-lineage ring served over the control socket
    ([mcr-ctl EXPLAIN [LAST|<n>]]). Three questions it answers:

    - {b Where did the downtime go?} {!attribution} decomposes the
      service-interruption window into segments read from the attempt's
      stage log. {!unattributed_ns} is the checked residue, property-tested
      across servers, worker counts, pre-copy, request parking and both
      transfer-charging models.
    - {b Why did it roll back?} {!explanation} names the failed pipeline
      stage, the frozen rollback reason, the conflicting objects (address,
      type tag, call-stack ID, shard, pre-copy round — captured when the
      conflict fired, never re-derived after rollback) and the
      fault-injection points that fired, with the retry lineage in
      [f_prior].
    - {b Did it meet its budget?} {!slo} evaluates the policy's optional
      downtime/total-time budgets; violations also count
      [mcr_slo_violations_total].

    This module is plain data: it never reads the kernel clock and charges
    nothing, so recording is always on and changes no measured number. *)

type attribution = {
  a_quiesce_ns : int;  (** Quiescence wait inside the window. *)
  a_restart_ns : int;
      (** Restart + replay; 0 under pre-copy (it runs before the window). *)
  a_trace_ns : int;  (** Critical pair's tracing critical path. *)
  a_copy_ns : int;  (** Critical pair's copy critical path (max shard). *)
  a_spawn_join_ns : int;  (** Critical pair's worker-pool spawn/join overhead. *)
  a_relink_ns : int;
      (** Program relink / library prelink; 0 under pre-copy (prepaid). *)
  a_channel_ns : int;  (** Per-process-pair transfer channel setup. *)
  a_handlers_ns : int;  (** Reinit-handler settling and transfer waves. *)
  a_teardown_ns : int;
      (** Commit/rollback tail: ctl reply delivery, kills, releases. *)
}
(** The downtime window, cut into segments in waterfall order. A stage's
    segment is the part of its logged interval at or after the window
    opened (0 if it never opened); the transfer charge's five parts are
    what it billed, and [a_handlers_ns] is the rest of the transfer stage.
    Reconciling with [downtime_ns] checks that the stages tile the window
    and that the charge took exactly the time it billed. *)

val zero_attribution : attribution
val attribution_sum : attribution -> int

val attribution_components : attribution -> (string * int) list
(** [(label, ns)] pairs in waterfall (elapsed) order. *)

type explanation = {
  e_reason : string;  (** Frozen [Mcr_error.to_string] form. *)
  e_stage : string;
      (** Failed pipeline stage: ["init" | "quiesce" | "restart_replay" |
          "precopy" | "state_transfer"]. *)
  e_conflicts : Mcr_error.conflict_obj list;
      (** As captured when the conflict fired. *)
  e_fault : string option;
      (** Fault-injection points that fired, comma-joined, oldest first. *)
}

type round = { r_words : int; r_cost_ns : int }
(** One pre-copy round: delta words staged and what they cost. *)

type slo = {
  s_downtime_budget_ns : int option;
  s_total_budget_ns : int option;
  s_downtime_ok : bool;
  s_total_ok : bool;
}

val slo_violated : slo -> bool

type record = {
  f_seq : int;  (** Lineage-wide ordinal, 1-based, monotonic. *)
  f_attempt : int;  (** 0-based attempt index within one [update] call. *)
  f_prog : string;
  f_from : string;  (** Version tags. *)
  f_to : string;
  f_success : bool;
  f_start_ns : int;  (** Virtual clock at attempt start. *)
  f_total_ns : int;
  f_downtime_ns : int;
  f_precopy : bool;
  f_workers : int;  (** Requested transfer worker-pool size. *)
  f_remapped_words : int;
      (** Words whose copy charge the zero-copy page remap retracted,
          summed over process pairs. A word count, not a duration: it is
          NOT part of {!attribution_sum}. *)
  f_skipped_clean_words : int;
      (** Words of soft-dirty-clean objects never copied (left to the new
          version's own startup), summed over pairs. Word count, not ns. *)
  f_rounds : round list;  (** Pre-copy rounds, oldest first. *)
  f_attribution : attribution;
  f_slo : slo option;  (** [None] when the policy sets no budgets. *)
  f_explanation : explanation option;  (** [None] on success. *)
  f_prior : record list;
      (** Earlier attempts of the same [update] call, oldest first, each
          with its own explanation ([f_prior] inside them is emptied). *)
}

val unattributed_ns : record -> int
(** [f_downtime_ns - attribution_sum f_attribution] — the residue the
    decomposition failed to explain. 0 under single-core charging; a
    dedicated-core charge that overshoots leaves a few microseconds. *)

val reconciled : ?epsilon:int -> record -> bool
(** [|unattributed_ns r| <= epsilon] (default 0). *)

(** {1 JSON}

    Deterministic encoding: fixed field order, integers only (the
    [unattributed_ns] field is included so consumers need not recompute),
    no float printing. [of_json] inverts [to_json]. *)

val to_json : record -> string
val list_to_json : record list -> string
val of_json : string -> (record, string) result

val decode : Json.t -> (record, string) result
(** Decode an already-parsed value — for containers (fleet summaries) that
    embed flight records. *)

val of_json_list : string -> (record list, string) result
(** Accepts either a JSON array of records or a single record. *)
