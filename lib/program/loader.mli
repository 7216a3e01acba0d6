(** Launching program versions into the simulated kernel.

    The dynamic-linker-plus-libmcr.so analog: builds the process image
    (symbol table, heaps, barrier, registries) before main runs, installs
    the entry resolver that fork/thread_create use, and re-binds images
    into every forked child via the kernel's spawn hook. The kernel's exit
    hook takes an exiting process out of its {!Progdef.tree}. *)

val launch :
  Mcr_simos.Kernel.t ->
  ?instr:Instr.t ->
  ?profiler:Mcr_quiesce.Profiler.t ->
  ?force_pid:int ->
  ?reserved:Mcr_vmem.Region.t list ->
  Progdef.version ->
  Mcr_simos.Kernel.proc
(** Create the root process of a program version, the first member of a
    fresh {!Progdef.tree}. The process is runnable but has not executed
    yet: its image ({!Progdef.image_of_proc_exn}) is where the MCR runtime
    subscribes to the tree before any program code runs. [reserved]
    regions are mapped at their own bases, names and kinds before the
    heaps are built: a live update passes the old tree's [mcr:pin]
    regions, so no heap of the new version is placed where a pinned old
    object must stay. Forked children inherit them with the address
    space. *)

val thread_key : Progdef.image -> Mcr_simos.Kernel.thread -> string
(** The stable cross-version identity of a thread: ["<class>#<ordinal>"],
    assigned on first use in thread-creation order. *)
