(** The simulated kernel: processes, threads, scheduling, file descriptors,
    sockets, semaphores, timers, and the system-call layer.

    Threads are cooperative coroutines implemented with OCaml effects; a
    thread parks whenever a blocking call cannot complete and is resumed by
    the event (data arrival, connection, semaphore post, timer) that
    satisfies it. A single virtual clock orders everything; it advances by
    the {!Costs.t} of each operation and jumps to the next timer when every
    thread is blocked.

    The per-process {e interceptor} and {e monitor} hooks are the
    "library-level interception of all the startup-time syscalls"
    (Section 5) that mutable reinitialization is built on. *)

type t
type proc
type thread

type payload = ..
(** Extensible per-process slot; the program layer stores its image (heaps,
    symbol tables, globals) here. *)

val create : ?costs:Costs.t -> unit -> t

(** {1 Clock} *)

val clock_ns : t -> int
val costs : t -> Costs.t

val idle_ns : t -> int
(** Virtual time spent with no runnable thread (clock jumps to timers).
    [clock_ns - idle_ns] is busy time; their ratio is CPU utilization. *)

val charge : t -> int -> unit
(** Advance the virtual clock by a cost (ns). The program and MCR layers use
    this to bill instrumentation work to virtual time. Every timer pending
    at the call leapfrogs the charged span (it fires late, at the span's
    end) — appropriate for costs billed to the whole machine. *)

val charge_concurrent : t -> int -> unit
(** Advance the virtual clock by a coordinator-side cost (ns) while the
    rest of the machine stays live: runnable threads and due timers keep
    dispatching as the span elapses, as if the charged work occupied one
    core of many. Client processes standing in for remote machines see a
    state-transfer window as elapsed time, not frozen time — their retry
    and backoff timers fire inside it. *)

(** {1 Filesystem} *)

val fs_write : t -> path:string -> string -> unit
val fs_read : t -> path:string -> string option

(** {1 Processes} *)

type image =
  | Fresh_image of Mcr_vmem.Aspace.t  (** Run with this (new) address space. *)
  | Clone_image of proc  (** Deep-copy the other process's address space. *)

val spawn_process :
  t ->
  ?parent:proc ->
  ?force_pid:int ->
  ?first_call:(thread -> Sysdefs.call option) ->
  image:image ->
  name:string ->
  entry:string ->
  main:(thread -> unit) ->
  unit ->
  proc
(** Create a process whose initial thread, named [entry], runs [main]. With
    [Clone_image src] the address space is deep-copied from [src] and the
    fd table copied with every open description shared (its reference count
    bumped), as fork does; with [Fresh_image] the fd table starts empty.
    [parent] sets the ppid and passes down the entry resolver and the
    reserved-fd mode. A [Fork] syscall builds its child through this same
    constructor, as [Clone_image] of the forking process named
    ["parent:entry"]; only a forked child records a creation call stack
    ({!creation_callstack}). [force_pid] implements pid-namespace forcing;
    @raise Invalid_argument if the pid is taken. The process starts
    runnable.

    [first_call], when given, is evaluated when the initial thread is first
    dispatched (it must not raise). [Some call] issues [call] as the
    thread's first system call before [main] has a fiber: it is charged,
    intercepted, fault-hooked, monitored and may block exactly as if [main]
    had made it, its result is discarded, and [main] starts when it
    completes, in the scheduling step that would have resumed it. A thread
    sleeping in that call holds no fiber or continuation. [None] starts
    [main] at once. *)

val set_entry_resolver : proc -> (string -> (thread -> unit) option) -> unit
(** How [Fork]/[Thread_create] syscalls resolve their [entry] names. The
    resolver is inherited by forked children. *)

val pid : proc -> int
val parent_pid : proc -> int
val proc_name : proc -> string
val aspace : proc -> Mcr_vmem.Aspace.t
(** An exited process has none: each call returns a new empty space, so
    nothing stored into it reaches another process. *)

val alive : proc -> bool
val exit_status : proc -> int option
val procs : t -> proc list
(** All processes ever created, in creation order. *)

val find_proc : t -> int -> proc option
(** The process with that pid, exited ones included. Constant time.

    An exited process keeps only what [Waitpid] and the lookups read: its
    pid, {!proc_name}, {!parent_pid}, {!exit_status},
    {!creation_callstack} and its initial thread (whose name is the
    process's entry). Like Linux's [do_exit], which frees a zombie's mm and
    file table before [wait], the exit drops its fd table, its address
    space, its other threads and its exit waiters, so a process that has
    exited costs a few dozen host words. *)

val proc_threads : proc -> thread list
val payload : proc -> payload option
val set_payload : proc -> payload -> unit
val creation_callstack : proc -> int
(** Call-stack id ({!callstack_id}) of the thread whose [Fork] created this
    process, taken at the fork; 0 for processes made by {!spawn_process}.
    Used to pair processes across versions (Section 6). *)

val kill_process : t -> proc -> status:int -> unit
(** Terminate a process from outside (MCR terminating the old version).
    Like an exit, this closes its fds, unmaps every region of its address
    space and drops its fd table, address space, {!payload}, interceptor,
    monitor and resolver; the process itself stays findable, with its
    status. *)

val fds : proc -> int list
(** Open fd numbers, sorted; none once the process has exited. *)

val set_reserved_fd_mode : proc -> bool -> unit
(** When on, new fds are allocated from a reserved high range "at the end of
    the file descriptor space" (Section 5, global separability). *)

(** {1 Threads} *)

val tid : thread -> int
val thread_name : thread -> string
val thread_proc : thread -> proc
val thread_alive : thread -> bool
val spawn_thread : t -> proc -> name:string -> (thread -> unit) -> thread

(** Shadow call stack, maintained by the program layer's [fn] combinator and
    hashed into call-stack ids. *)

val push_frame : thread -> string -> unit
val pop_frame : thread -> unit
val callstack : thread -> string list
(** Innermost frame first. *)

val callstack_id : thread -> int
(** FNV hash of the active function names (Section 5). *)

(** {1 System calls} *)

val syscall : Sysdefs.call -> Sysdefs.result
(** Perform a system call. Must run inside a simulated thread.
    [Exit] does not return; it unmaps the process's address space, as
    {!kill_process} does. *)

type interception =
  | Execute  (** Run the call normally. *)
  | Short_circuit of Sysdefs.result  (** Replay: return this without executing. *)
  | Rewrite of Sysdefs.call
      (** Execute a different call instead (e.g. translating a virtual pid
          from the old version's namespace to the real one). *)
  | Post of Sysdefs.call * (Sysdefs.result -> Sysdefs.result)
      (** Execute the given call, then transform its result before the
          program sees it (e.g. returning the recorded child pid from a
          fork while tracking the real one). *)

val set_interceptor : proc -> (thread -> Sysdefs.call -> interception) option -> unit
(** Pre-execution hook (replay engine). *)

val set_monitor : proc -> (thread -> Sysdefs.call -> Sysdefs.result -> unit) option -> unit
(** Post-execution hook (startup-log recording). Not invoked for
    short-circuited calls. *)

val set_block_monitor :
  t -> (thread -> Sysdefs.call -> blocked_ns:int -> unit) option -> unit
(** Invoked whenever a thread that parked in a blocking call resumes; the
    quiescence profiler's statistical input. *)

val set_spawn_hook : t -> (proc -> unit) option -> unit
(** Invoked for every process created ({!spawn_process} or a [Fork]
    syscall), before its first thread runs. The MCR runtime uses this to
    attach instrumentation (interceptors, recorders) to children — the
    preloaded-library analog. *)

val set_exit_hook : t -> (proc -> unit) option -> unit
(** Invoked once for every process that exits or is killed, before its
    payload and tables are dropped. The MCR runtime uses this to take the
    process out of its process tree. *)

val set_fault_hook :
  t -> (thread -> Sysdefs.call -> Sysdefs.result option) option -> unit
(** Kernel-wide fault-injection hook, consulted for every call that is
    about to execute for real (after interception — short-circuited replay
    calls never reach it, and [Exit] is never faultable). Returning
    [Some r] delivers [r] instead of executing the call; the result flows
    through the process monitor like any genuine completion, so recording
    sees injected failures as ordinary outcomes. *)

val unlink_path : t -> path:string -> unit
(** Remove a Unix-domain socket's filesystem name (the [unlink] analog).
    Closing a listener does {e not} remove its name — as on a real system —
    so a later [Unix_listen] on the same path fails with [EADDRINUSE]
    until the stale name is unlinked. No-op if the path is not bound. *)

val path_active : t -> path:string -> bool
(** Whether [path] names a Unix-domain listener that is still open (i.e.
    unlinking it would disconnect a live service rather than collect a
    stale name). *)

(** {1 Scheduling} *)

val run : t -> unit
(** Run until no thread is runnable and no timer is pending. *)

val run_until : t -> ?max_ns:int -> (unit -> bool) -> bool
(** Run until the predicate holds (checked between scheduling steps), the
    system goes quiet, or the clock passes [max_ns] (an {e absolute} virtual
    time). Returns whether the predicate held. *)

val run_for : t -> int -> unit
(** Run for at most [ns] of virtual time. *)

val quiescent_system : t -> bool
(** No runnable threads and no pending timers. *)

val post_semaphore : t -> string -> unit
(** Post a named semaphore from outside any simulated thread. The MCR
    runtime (which runs as controller code, not as a simulated thread) uses
    this to release quiescence barriers. *)

val close_fd_external : t -> proc -> int -> unit
(** Close a descriptor on a process's behalf (controller-side). Used by the
    replay engine to garbage-collect inherited descriptors that no replay
    operation referenced, and to apply startup-deferred closes. No-op on a
    closed fd. *)

val transfer_fd :
  t -> src:proc -> fd:int -> dst:proc -> at:int -> (int, Sysdefs.err) result
(** Kernel-mediated descriptor inheritance (the CRIU-style support MCR
    builds on, and the kernel's only way to pass a descriptor between
    processes): install [src]'s descriptor [fd] into [dst] at exactly
    [at], sharing the open file description with the source — the old and
    new versions "share" the object until one of them closes it. A [dst]
    that has exited gets a table of its own for it. Errors:
    [EBADF] if [fd] is not open in [src], [EEXIST] if [at] is taken in
    [dst]. *)

(** {1 Connection parking}

    The in-flight-request half of live update: while a listener is parked,
    new connections complete their handshake (no [ECONNREFUSED]) but wait
    in a SYN-queue analog, invisible to [Accept] and [Poll]; unparking
    moves them FIFO into the accept backlog of the surviving version
    (listener descriptors are shared across versions via {!transfer_fd}).
    The kernel keeps a conservation ledger: every parked connection is
    eventually resumed or aborted. *)

val park_listeners : t -> proc -> int
(** Park every open listener of [p]; returns how many listeners
    transitioned to parked (already-parked ones don't count). *)

val unpark_listeners : t -> proc -> int
(** Unpark [p]'s listeners, moving parked connections FIFO into their
    accept backlogs (the backlog bound applies only to new connections);
    returns the number of connections resumed. *)

type parking_stats = { parked : int; resumed : int; aborted : int }
(** Kernel-lifetime totals; [parked = resumed + aborted + still-queued]
    holds at all times. Aborted counts parked connections whose listener
    was closed before unpark. *)

val parking_stats : t -> parking_stats

val blocked_in : thread -> Sysdefs.call option
(** The blocking call a parked thread is sitting in, if any. *)

val blocked_since : thread -> int option
(** Virtual time at which the thread parked in its current blocking call
    ([None] when not blocked). The quiescence profiler's sampling input. *)
