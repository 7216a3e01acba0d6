type fd = int
type pid = int

type call =
  | Socket
  | Bind of { fd : fd; port : int }
  | Listen of { fd : fd; backlog : int }
  | Accept of { fd : fd; nonblock : bool }
  | Accept_timed of { fd : fd; timeout_ns : int }
  | Connect of { port : int }
  | Read of { fd : fd; max : int; nonblock : bool }
  | Write of { fd : fd; data : string }
  | Close of { fd : fd }
  | Open of { path : string; create : bool }
  | Open_at of { path : string; create : bool; force_fd : fd }
  | Poll of { fds : fd list; timeout_ns : int option; nonblock : bool }
  | Getpid
  | Getppid
  | Fork of { entry : string }
  | Thread_create of { entry : string }
  | Waitpid of { pid : pid }
  | Exit of { status : int }
  | Nanosleep of { ns : int }
  | Sem_wait of { name : string; timeout_ns : int option }
  | Unix_listen of { path : string }
  | Unix_connect of { path : string }
  | Shmget of { key : int }

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
  | ENOSPC
  | ECONNRESET

type result =
  | Ok_unit
  | Ok_fd of fd
  | Ok_pid of pid
  | Ok_data of string
  | Ok_len of int
  | Ok_ready of fd list
  | Ok_status of int
  | Err of err

exception Program_exit of int

let call_name = function
  | Socket -> "socket"
  | Bind _ -> "bind"
  | Listen _ -> "listen"
  | Accept _ -> "accept"
  | Accept_timed _ -> "accept_timed"
  | Connect _ -> "connect"
  | Read _ -> "read"
  | Write _ -> "write"
  | Close _ -> "close"
  | Open _ -> "open"
  | Open_at _ -> "open_at"
  | Poll _ -> "poll"
  | Getpid -> "getpid"
  | Getppid -> "getppid"
  | Fork _ -> "fork"
  | Thread_create _ -> "thread_create"
  | Waitpid _ -> "waitpid"
  | Exit _ -> "exit"
  | Nanosleep _ -> "nanosleep"
  | Sem_wait _ -> "sem_wait"
  | Unix_listen _ -> "unix_listen"
  | Unix_connect _ -> "unix_connect"
  | Shmget _ -> "shmget"

let is_blocking = function
  | Accept { nonblock; _ } | Read { nonblock; _ } | Poll { nonblock; _ } -> not nonblock
  | Waitpid _ | Nanosleep _ | Sem_wait _ | Accept_timed _ -> true
  | Socket | Bind _ | Listen _ | Connect _ | Write _ | Close _ | Open _ | Open_at _ | Getpid
  | Getppid | Fork _ | Thread_create _ | Exit _ | Unix_listen _ | Unix_connect _ | Shmget _ ->
      false

let err_name = function
  | EAGAIN -> "EAGAIN"
  | EBADF -> "EBADF"
  | EADDRINUSE -> "EADDRINUSE"
  | ECONNREFUSED -> "ECONNREFUSED"
  | ENOENT -> "ENOENT"
  | EEXIST -> "EEXIST"
  | EPIPE -> "EPIPE"
  | EINTR -> "EINTR"
  | ETIMEDOUT -> "ETIMEDOUT"
  | ECHILD -> "ECHILD"
  | EINVAL -> "EINVAL"
  | EMFILE -> "EMFILE"
  | ENOSPC -> "ENOSPC"
  | ECONNRESET -> "ECONNRESET"

let pp_err ppf e = Format.pp_print_string ppf (err_name e)

let pp_call ppf c =
  match c with
  | Socket | Getpid | Getppid -> Format.pp_print_string ppf (call_name c)
  | Bind { fd; port } -> Format.fprintf ppf "bind(fd=%d, port=%d)" fd port
  | Listen { fd; backlog } -> Format.fprintf ppf "listen(fd=%d, backlog=%d)" fd backlog
  | Accept { fd; nonblock } -> Format.fprintf ppf "accept(fd=%d%s)" fd (if nonblock then ", NB" else "")
  | Accept_timed { fd; timeout_ns } -> Format.fprintf ppf "accept_timed(fd=%d, t=%dns)" fd timeout_ns
  | Connect { port } -> Format.fprintf ppf "connect(port=%d)" port
  | Read { fd; max; nonblock } ->
      Format.fprintf ppf "read(fd=%d, max=%d%s)" fd max (if nonblock then ", NB" else "")
  | Write { fd; data } -> Format.fprintf ppf "write(fd=%d, %d bytes)" fd (String.length data)
  | Close { fd } -> Format.fprintf ppf "close(fd=%d)" fd
  | Open { path; create } -> Format.fprintf ppf "open(%S%s)" path (if create then ", O_CREAT" else "")
  | Open_at { path; force_fd; _ } -> Format.fprintf ppf "open_at(%S, fd=%d)" path force_fd
  | Poll { fds; timeout_ns; nonblock } ->
      Format.fprintf ppf "poll([%s]%s%s)"
        (String.concat ";" (List.map string_of_int fds))
        (match timeout_ns with Some t -> Printf.sprintf ", t=%dns" t | None -> "")
        (if nonblock then ", NB" else "")
  | Fork { entry } -> Format.fprintf ppf "fork(entry=%s)" entry
  | Thread_create { entry } -> Format.fprintf ppf "thread_create(entry=%s)" entry
  | Waitpid { pid } -> Format.fprintf ppf "waitpid(%d)" pid
  | Exit { status } -> Format.fprintf ppf "exit(%d)" status
  | Nanosleep { ns } -> Format.fprintf ppf "nanosleep(%dns)" ns
  | Sem_wait { name; timeout_ns } ->
      Format.fprintf ppf "sem_wait(%s%s)" name
        (match timeout_ns with Some t -> Printf.sprintf ", t=%dns" t | None -> "")
  | Unix_listen { path } -> Format.fprintf ppf "unix_listen(%S)" path
  | Unix_connect { path } -> Format.fprintf ppf "unix_connect(%S)" path
  | Shmget { key } -> Format.fprintf ppf "shmget(key=%d)" key

let pp_result ppf = function
  | Ok_unit -> Format.pp_print_string ppf "ok"
  | Ok_fd fd -> Format.fprintf ppf "fd=%d" fd
  | Ok_pid pid -> Format.fprintf ppf "pid=%d" pid
  | Ok_data d -> Format.fprintf ppf "data(%d bytes)" (String.length d)
  | Ok_len n -> Format.fprintf ppf "len=%d" n
  | Ok_ready fds ->
      Format.fprintf ppf "ready=[%s]" (String.concat ";" (List.map string_of_int fds))
  | Ok_status s -> Format.fprintf ppf "status=%d" s
  | Err e -> pp_err ppf e
