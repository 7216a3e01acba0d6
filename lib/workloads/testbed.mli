(** Shared experiment setup: one entry point per evaluated server covering
    filesystem fixtures, launch-and-settle, the paper's benchmark workload,
    the profiling workload, and held connections. The benchmark harness and
    the examples both build on this. *)

type server = Nginx | Httpd | Vsftpd | Sshd

val all : server list
val name : server -> string
val port : server -> int

val base_version : server -> Mcr_program.Progdef.version
val final_version : server -> Mcr_program.Progdef.version
val version_series : server -> Mcr_program.Progdef.version list
val meta : server -> Mcr_servers.Table_meta.t

val html_1k : string
(** The 1 KB HTML file the web servers serve as [/www/index.html]. *)

val prepare_fs : ?config:string -> Mcr_simos.Kernel.t -> server -> unit
(** Config files, a 1 KB HTML file ([/www/index.html]), a 1 MB FTP payload
    ([big.bin]). [?config] overrides the server's config-file content —
    the downtime benchmark uses it to set per-connection buffer ballast
    ([conn_buffer_words] / [ConnBufferWords]). *)

val launch :
  ?instr:Mcr_program.Instr.t ->
  ?profiler:Mcr_quiesce.Profiler.t ->
  ?version:Mcr_program.Progdef.version ->
  ?trace:Mcr_obs.Trace.t ->
  ?config:string ->
  Mcr_simos.Kernel.t ->
  server ->
  Mcr_core.Manager.t
(** Prepare the fs, launch, and drive the kernel until the whole process
    tree has settled (children created and quiescent-ready). Works for both
    instrumented and baseline/profiling configurations. [?trace] threads an
    observability sink into the manager ({!Mcr_core.Manager.launch});
    [?config] overrides the config-file content ({!prepare_fs}). *)

val benchmark : Mcr_simos.Kernel.t -> server -> ?scale:int -> unit -> Bench_result.t
(** The paper's benchmark: AB (100k requests, 1 KB file) for the web
    servers, pyftpdlib (100 users, 1 MB file) for vsftpd, the test-suite
    analog for sshd — divided by [scale] (default 100) to keep simulation
    wall-clock reasonable. *)

val open_holders : Mcr_simos.Kernel.t -> server -> n:int -> Holders.t
(** Long-lived connections of the kind Figure 3 holds open; drives the
    kernel until all are established. *)

val profiling_workload : Mcr_simos.Kernel.t -> server -> Holders.t
(** The Table 1 profiling workload: long-lived connections plus one request
    for a very large file in parallel. One holder group is closed before
    return (so dynamically spawned handler classes produce blocking
    statistics and short-lived classes are observable); a second group is
    returned still open (so those classes are long-lived at report time) —
    close it after taking the profiler report. *)
