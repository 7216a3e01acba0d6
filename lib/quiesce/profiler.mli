(** The quiescence profiler (Section 4).

    Runs the target program under a test workload and suggests per-thread
    quiescent points: "a quiescent point is simply identified by the
    blocking call where a given thread spends most of its time during the
    execution-stalling test workload", and long-lived loops: "the thread's
    deepest loop that never terminates during the test workload".

    Attach installs a kernel block monitor (the statistical profiling of
    library calls); loop and thread lifecycle events are reported by the
    program layer's combinators. *)

type t

val create : Mcr_simos.Kernel.t -> t

val attach : t -> unit
(** Install the kernel-wide block monitor. Only one profiler can be
    attached at a time. *)

val set_filter : t -> (Mcr_simos.Kernel.thread -> bool) -> unit
(** Restrict profiling to threads satisfying the predicate (e.g. threads of
    the program under test, excluding benchmark clients). Default: all. *)

val set_trace : t -> Mcr_obs.Trace.t option -> unit
(** Attach an observability sink: thread lifecycle events
    ([thread.start] / [thread.end], category ["profiler"]) are emitted as
    instants. Default: no sink. *)

val detach : t -> unit

(** {1 Events from the program layer} *)

val note_thread_start : t -> Mcr_simos.Kernel.thread -> unit
val note_thread_end : t -> Mcr_simos.Kernel.thread -> unit
val note_loop_enter : t -> Mcr_simos.Kernel.thread -> string -> unit
val note_loop_exit : t -> Mcr_simos.Kernel.thread -> string -> unit

(** {1 Report} *)

type qpoint = {
  site : string;  (** Innermost shadow-stack frame at the blocking call. *)
  call : string;  (** Syscall mnemonic, e.g. "accept". *)
  blocked_ns : int;
  hits : int;
}

type thread_class = {
  cls : string;  (** Thread entry name; one row per class, as in Table 1. *)
  instances : int;
  long_lived : bool;  (** Some instance still alive at report time. *)
  persistent : bool;  (** Class already present right after startup. *)
  quiescent_point : qpoint option;  (** Dominant blocking site (long-lived only). *)
  long_lived_loops : string list;  (** Loops entered but never exited. *)
  blocked_p50_ns : int;
  blocked_p90_ns : int;
  blocked_p99_ns : int;
      (** Blocking-duration percentiles across all sites and instances of
          the class, from a shared {!Mcr_util.Stats.hist} (upper-bound
          estimates; 0 when the class never blocked). *)
}

type report = {
  classes : thread_class list;
  short_lived : int;  (** Count of short-lived classes (Table 1 "SL"). *)
  long_lived_count : int;  (** Table 1 "LL". *)
  quiescent_points : int;  (** Table 1 "QP". *)
  persistent_points : int;  (** Table 1 "Per". *)
  volatile_points : int;  (** Table 1 "Vol". *)
}

val report : t -> report
(** Build the report. Besides the accumulated resume statistics, threads
    {e currently} blocked at report time are attributed to their blocking
    site (weighted by thread lifetime) — the sampling view a statistical
    profiler would give, needed for quiescent points whose calls never
    complete during the workload (e.g. signal waits). *)

val suggested_qpoints : report -> (string * string) list
(** [(site, call)] pairs to instrument — the profiler's output consumed by
    the static instrumentation. *)

val pp_report : Format.formatter -> report -> unit
