(** System call definitions.

    Every interaction between a simulated program and the simulated kernel
    is one of these calls. The startup log records values of {!call} paired
    with their {!result}s; mutable reinitialization replays them. Calls are
    plain data so the replay engine's "deep comparison of the arguments"
    (Section 5) is structural equality. *)

type fd = int
type pid = int

type call =
  | Socket  (** TCP-like listening/connecting socket. *)
  | Bind of { fd : fd; port : int }
  | Listen of { fd : fd; backlog : int }
  | Accept of { fd : fd; nonblock : bool }
  | Accept_timed of { fd : fd; timeout_ns : int }
      (** The timeout-based variant unblockification wrappers use: parks at
          most [timeout_ns] and wakes exactly one waiter per connection
          (plain polling would thunder every wrapped acceptor). *)
  | Connect of { port : int }  (** Client side; returns the connected fd. *)
  | Read of { fd : fd; max : int; nonblock : bool }
  | Write of { fd : fd; data : string }
  | Close of { fd : fd }
  | Open of { path : string; create : bool }
  | Open_at of { path : string; create : bool; force_fd : fd }
      (** Replay-only: open installing the descriptor at exactly [force_fd],
          with a fresh file offset — how mutable reinitialization re-executes
          a recorded [open] while preserving the fd number. *)
  | Poll of { fds : fd list; timeout_ns : int option; nonblock : bool }
  | Getpid
  | Getppid
  | Fork of { entry : string }
      (** Spawn-with-inheritance (see DESIGN.md): the child copies the
          parent's address space and fd table and starts at [entry]. *)
  | Thread_create of { entry : string }
  | Waitpid of { pid : pid }
  | Exit of { status : int }
  | Nanosleep of { ns : int }
  | Sem_wait of { name : string; timeout_ns : int option }
  | Unix_listen of { path : string }
      (** Unix-domain listening socket; unlike TCP, its accept backlog has
          no cap. *)
  | Unix_connect of { path : string }
  | Shmget of { key : int }
      (** SysV shared-memory segment: returns a {e globally} allocated id
          with no namespace support — the paper's Section 7 example of an
          immutable object class MCR cannot virtualize. No server issues
          it; it stays because it is the only call that raises the
          replay's [Unsupported] conflict, which the replay tests pin. *)

type err =
  | EAGAIN
  | EBADF
  | EADDRINUSE
  | ECONNREFUSED
  | ENOENT
  | EEXIST
  | EPIPE
  | EINTR
  | ETIMEDOUT
  | ECHILD
  | EINVAL
  | EMFILE
  | ENOSPC  (** Injected by the fault harness: device-full analog. *)
  | ECONNRESET  (** Injected by the fault harness: peer-reset analog. *)

type result =
  | Ok_unit
  | Ok_fd of fd
  | Ok_pid of pid
  | Ok_data of string  (** [""] means EOF on a stream. *)
  | Ok_len of int
  | Ok_ready of fd list
  | Ok_status of int  (** Exit status from [Waitpid]. *)
  | Err of err

exception Program_exit of int
(** Raised inside a thread by [Exit]; unwinds the thread. *)

val call_name : call -> string
(** Stable mnemonic ("socket", "bind", ...), used in logs and conflict
    reports. *)

val is_blocking : call -> bool
(** Whether the call can park the thread (its [nonblock] flag taken into
    account). *)

val pp_call : Format.formatter -> call -> unit
val pp_result : Format.formatter -> result -> unit
val pp_err : Format.formatter -> err -> unit
