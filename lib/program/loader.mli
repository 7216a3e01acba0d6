(** Launching program versions into the simulated kernel.

    The dynamic-linker-plus-libmcr.so analog: builds the process image
    (symbol table, heaps, barrier, registries) before main runs, installs
    the entry resolver that fork/thread_create use, and re-binds images
    into every forked child via the kernel's spawn hook. *)

val launch :
  Mcr_simos.Kernel.t ->
  ?instr:Instr.t ->
  ?profiler:Mcr_quiesce.Profiler.t ->
  ?on_image:(Progdef.image -> unit) ->
  ?force_pid:int ->
  Progdef.version ->
  Mcr_simos.Kernel.proc
(** Create the root process of a program version. The process is runnable
    but has not executed yet — [on_image] fires with the fresh image before
    any program code runs, which is where the MCR runtime attaches its
    hooks. *)

val run_entry : string -> Progdef.body -> Mcr_simos.Kernel.thread -> unit
(** Wrap an entry-point body with the per-thread bookkeeping (shadow-stack
    frame, thread key/ordinal, profiler notes, barrier deregistration).
    Exposed for runtime-created threads that mimic program entries. *)

val thread_key : Progdef.image -> Mcr_simos.Kernel.thread -> string
(** The stable cross-version identity of a thread: ["<class>#<ordinal>"],
    assigned on first use in thread-creation order. *)

val fork_image : Progdef.image -> Mcr_simos.Kernel.proc -> Progdef.image
(** Build (and attach) the child's image for a forked process: heaps and
    custom allocators re-bound onto the child's cloned address space, a
    fresh per-process barrier, startup tracking restarted. Normally invoked
    by the spawn hook; exposed for tests. *)

val install_spawn_hook : Mcr_simos.Kernel.t -> unit
(** Idempotently install the kernel-wide hook that propagates images into
    forked children. [launch] calls this. *)
