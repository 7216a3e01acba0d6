(** Consolidated update policy.

    Every knob governing {!Manager.launch}/{!Manager.update} — deadlines,
    retry, fault seed, dirty-only filtering, pre-copy, worker pool, page
    remap, SLO budgets, checkpoint imaging — in one immutable record with
    builder functions, passed once via [?policy]. This record is the only
    spelling: there are no per-field optional arguments. *)

type t = {
  quiesce_deadline_ns : int option;
      (** Give up on quiescence after this long (default: none; the barrier
          protocol's own 5 s horizon applies). *)
  update_deadline_ns : int option;
      (** Whole-update budget measured from the update request; blowing it
          anywhere in the pipeline rolls back (default: none). *)
  retries : int;  (** Additional attempts after a rollback (default 0). *)
  retry_backoff_ns : int;
      (** Linear backoff between attempts: attempt [n] waits [n] times this
          (default 100 ms). *)
  fault_seed : int option;
      (** Arm {!Mcr_fault.Fault.of_seed} on every update (default none). *)
  dirty_only : bool;
      (** Soft-dirty filtering of the state transfer (default true; false
          is the transfer-everything ablation). *)
  precopy : bool;
      (** Iterative pre-copy state transfer: speculatively trace and stage
          the old version's state while it keeps serving, so only the final
          delta is paid inside the quiescence window (default false). *)
  precopy_max_rounds : int;
      (** Round budget including the initial full round. 1 means a single
          speculative round with no convergence check (default 4). *)
  precopy_threshold_words : int;
      (** A delta round staging at most this many words has converged; if
          no round converges within the budget the update rolls back with
          {!Mcr_error.Precopy_diverged} (default 512). *)
  transfer_workers : int;
      (** Simulated state-transfer worker pool size. The reachable set is
          partitioned into that many word-balanced shards and downtime is
          charged as the critical path over shards plus per-worker
          spawn/join overhead; results are byte-identical for every value
          (default 1 — sequential accounting, no overhead). *)
  transfer_remap : bool;
      (** Zero-copy page remap: after the in-window copy, destination pages
          byte-identical to a page-aligned congruent source page share the
          source frame (copy-on-write) instead of keeping a private copy,
          and pay {!Mcr_simos.Costs.t.remap_page_ns} per page instead of
          per-word copy charges. Byte-identical results either way
          (default false). *)
  slo_downtime_ns : int option;
      (** Per-update downtime budget for SLO evaluation (default none). A
          completed attempt whose downtime exceeds it is recorded as an SLO
          violation in the flight record and counted in
          [mcr_slo_violations_total] — informational: it never causes a
          rollback by itself (use [update_deadline_ns] for enforcement). *)
  slo_total_ns : int option;
      (** Per-update end-to-end duration budget, same semantics (default
          none). *)
  image_dir : string option;
      (** When set, every update snapshots a persistent checkpoint image of
          the old version at its quiescent point and writes it (with the
          attempt's flight record attached) into this {e host} directory
          once the attempt completes — the input to crash recovery,
          migration and [mcr-postmortem --replay] (default none). *)
  request_parking : bool;
      (** Park in-flight connections during the update window: listeners
          stop refusing (no [ECONNREFUSED] retry storms) and instead queue
          new connections kernel-side, resuming them FIFO on the surviving
          version after commit or rollback. Established connections get a
          bounded [drain_ns] grace period before quiescence is requested
          (default false). *)
  drain_ns : int;
      (** How long to keep serving after parking the listeners, so
          requests already being processed finish before the quiescence
          barrier is requested (default 2 ms; only meaningful with
          [request_parking]). *)
  concurrent_transfer : bool;
      (** Bill the state-transfer copy to a dedicated core
          ({!Mcr_simos.Kernel.charge_concurrent}): the rest of the machine
          — in particular client processes standing in for remote hosts —
          keeps running through the copy window, so their retry/backoff
          timers fire inside it instead of leapfrogging to its end. Off by
          default: single-core accounting, window freezes everything. *)
}

val default : t

val with_quiesce_deadline_ns : int option -> t -> t
val with_deadlines : quiesce_ns:int option -> update_ns:int option -> t -> t
val with_retries : ?backoff_ns:int -> int -> t -> t
(** [with_retries n p] sets the retry count; [backoff_ns] defaults to the
    current value of [p].
    @raise Invalid_argument if the count or the backoff is negative. *)

val with_fault_seed : int option -> t -> t
val with_dirty_only : bool -> t -> t

val with_precopy : ?max_rounds:int -> ?threshold_words:int -> bool -> t -> t
(** [with_precopy true p] enables pre-copy; the optional knobs default to
    the current values of [p]. *)

val with_transfer_workers : int -> t -> t
(** Set the transfer worker-pool size.
    @raise Invalid_argument if the count is below 1. *)

val with_transfer_remap : bool -> t -> t
(** Enable or disable the zero-copy page remap. *)

val with_slo : downtime_ns:int option -> total_ns:int option -> t -> t
(** Set (or clear, with [None]) the SLO budgets.
    @raise Invalid_argument if a budget is not positive. *)

val with_image_dir : string option -> t -> t
(** Set (or clear) the host directory update-time checkpoint images are
    written into. *)

val with_request_parking : ?drain_ns:int -> bool -> t -> t
(** [with_request_parking true p] parks in-flight connections through
    update windows; [drain_ns] defaults to the current value of [p].
    @raise Invalid_argument if the drain budget is negative. *)

val with_concurrent_transfer : bool -> t -> t
(** Enable or disable dedicated-core accounting for the state-transfer
    window. *)

val to_kv : t -> string
(** Render the scalar fields as a [key=value ...] line — the form embedded
    in checkpoint images so an offline replay can reconstruct the exact
    policy, and the only rendering of a policy. Its keys are the ones the
    ctl [POLICY] command accepts ({!Frame.command}). [image_dir]
    deliberately does not round-trip (a replayed update must not
    re-snapshot images). *)

val of_kv : base:t -> string -> (t, string) result
(** Parse {!to_kv} output over [base]: every key that is absent, and
    [image_dir], keep [base]'s value. Images decode over {!default}, the
    ctl [POLICY] command over the lineage's current policy. Unknown keys
    and tokens without [=] are ignored, so policies written by older
    builds keep parsing. A value the matching [with_*] builder would
    reject, or a negative deadline, is an [Error] naming its key. *)
