(** The replay phase of mutable reinitialization (Section 5).

    The new version starts from scratch; system calls that refer to
    immutable state objects (descriptors, pids) and perfectly match the old
    startup log — same call-stack ID, same deeply-compared arguments — are
    short-circuited with their recorded results, so the startup code runs
    against the inherited objects without disturbing them. Everything else
    executes live. Mismatched arguments and omitted recorded calls raise
    conflicts, which the MCR runtime turns into a rollback.

    Pid virtualization: recorded pids are returned to the program (the
    namespace illusion), while an internal map translates them to real pids
    for calls like [waitpid].

    Call {!start} on a launched-but-not-yet-run root image, after the
    inherited descriptors have been installed. It follows the root's
    {!Mcr_program.Progdef.tree}: every process forked in it, during the
    update or long after, is replayed against the log its key names until
    its own first quiescent point. There the replayer checks for omitted
    calls, applies startup-deferred closes, garbage-collects inherited
    descriptors the replay never referenced, and stops intercepting the
    process.

    Per process, dead or alive, it keeps the replay state (with its
    reconstructed log, the next update's input) and the pairing key; an
    exited process's state is never dropped. *)

type conflict =
  | Arg_mismatch of {
      pid : int;  (** New-version pid where the conflict arose. *)
      callstack : int;
      recorded : Mcr_simos.Sysdefs.call;
      observed : Mcr_simos.Sysdefs.call;
    }
  | Omitted of { pid : int; callstack : int; call : Mcr_simos.Sysdefs.call }
  | Unsupported of { pid : int; callstack : int; call : Mcr_simos.Sysdefs.call }
      (** A recorded call creates an immutable object MCR cannot
          virtualize (e.g. SysV shm ids — no namespace support, Section 7);
          replaying it safely is impossible, so the update rolls back
          unless a user annotation takes over. *)
  | Injected of { pid : int; callstack : int; call : Mcr_simos.Sysdefs.call }
      (** A synthetic conflict from the fault harness
          ({!Mcr_fault.Fault.Replay_conflict}): [call] is whatever the new
          version happened to be executing when the fault fired. *)

type t

val start :
  ?trace:Mcr_obs.Trace.t ->
  ?fault:Mcr_fault.Fault.t ->
  Mcr_simos.Kernel.t ->
  Mcr_program.Progdef.image ->
  logs:Logdefs.plog list ->
  inherited:int list ->
  t
(** [start kernel root ~logs ~inherited] arms replay on the new version's
    root image. [inherited] are the reserved-range fd numbers installed
    from the old version (candidates for garbage collection if unused).
    With [?trace], every replay decision emits an instant event under the
    new process's pid, category ["replay"]: [replay.replayed] for
    short-circuited calls, [replay.live] for calls executed live, and
    [replay.conflict] (with a [kind] argument) for mismatches, omissions,
    and unsupported objects. With [?fault], an armed
    {!Mcr_fault.Fault.Replay_conflict} fires on the next intercepted
    syscall as an [Injected] conflict. *)

val conflicts : t -> conflict list
(** Conflicts observed so far, oldest first. *)

val replayed_calls : t -> int
(** Short-circuited call count (control-migration statistics). *)

val live_calls : t -> int

val pp_conflict : Format.formatter -> conflict -> unit

val new_logs : t -> Logdefs.plog list
(** The new version's reconstructed startup logs (replayed entries carry
    their recorded results, live entries their actual results) — the input
    to the {e next} live update. *)

val pairs : t -> (Logdefs.proc_key * int) list
(** New-version processes by cross-version key, in creation order — the
    pairing state transfer uses to connect each new process to its old
    counterpart. *)

val rollback_reason : t -> Mcr_error.rollback_reason option
(** [Some Reinit_conflict] when any replay conflict was observed — the
    shared rollback vocabulary for mutable-reinitialization failures. *)
