(** The programming interface simulated servers are written against.

    Everything a server does — calling the kernel, allocating typed memory,
    reading and writing its globals — goes through these combinators, which
    is where MCR's instrumentation lives: shadow call stacks ({!fn}),
    profiled loops ({!loop}), unblockified blocking calls ({!blocking}),
    and tag-maintaining allocation ({!malloc}).

    All functions take the {!Progdef.ctx} handed to the entry point and must
    run inside that simulated thread. *)

open Progdef

exception Sys_error of Mcr_simos.Sysdefs.err
(** Raised by the [_exn] conveniences on unexpected errors. *)

exception Unreachable_after_exit of int
(** Raised (with the pid) if control ever returns from {!exit} — a kernel
    bug; the [Exit] effect must unwind the thread. *)

(** {1 Control} *)

val fn : ctx -> string -> (unit -> 'a) -> 'a
(** [fn t name body] runs [body] with [name] pushed on the shadow call
    stack. Call-stack IDs (replay matching, object pairing) hash these
    frames. *)

val loop : ctx -> string -> (unit -> bool) -> unit
(** [loop t name step] runs [step] until it returns [false]. Loop profiling
    (long-lived loop detection) observes entry and termination. *)

val app_work : ctx -> int -> unit
(** Charge [n] application work units to virtual time (request handling
    compute). *)

val exit : ctx -> int -> 'a
(** Terminate the process. @raise Unreachable_after_exit if the kernel
    fails to unwind the calling thread. *)

(** {1 System calls} *)

val sys : ctx -> Mcr_simos.Sysdefs.call -> Mcr_simos.Sysdefs.result
(** A plain system call. *)

val blocking : ctx -> qpoint:string -> Mcr_simos.Sysdefs.call -> Mcr_simos.Sysdefs.result
(** A blocking call at a potential quiescent point. When the site is
    instrumented (listed in the version's [qpoints] and unblockification is
    on), the call is wrapped: it never truly blocks, periodically runs the
    quiescence hook, and parks at the barrier when an update is pending.
    The first wrapped call in a process marks the end of its startup. *)

val sys_fd_exn : ctx -> Mcr_simos.Sysdefs.call -> int
(** [sys] + expect [Ok_fd]. @raise Sys_error otherwise. *)

val sys_unit_exn : ctx -> Mcr_simos.Sysdefs.call -> unit

(** {1 Memory} *)

val sizeof : ctx -> string -> int
(** Size in words of a named type. *)

val malloc : ctx -> ?site:string -> string -> Mcr_vmem.Addr.t
(** [malloc t tyname] allocates one object of the named type from the
    instrumented heap, maintaining type/site/call-stack tags when static
    instrumentation is on. [site] defaults to ["<innermost frame>:<tyname>"]
    and is the cross-version identity of the allocation site. *)

val malloc_n : ctx -> ?site:string -> string -> int -> Mcr_vmem.Addr.t
(** Allocate an array of [n] objects of the named type (tagged as such). *)

val malloc_opaque : ctx -> ?site:string -> int -> Mcr_vmem.Addr.t
(** Allocate [words] of untyped storage (tagged opaque — conservatively
    traced). *)

val free : ctx -> Mcr_vmem.Addr.t -> unit

val lib_malloc : ctx -> int -> Mcr_vmem.Addr.t
(** Allocate from the uninstrumented shared-library heap. *)

val global : ctx -> string -> Mcr_vmem.Addr.t
(** Address of a global by symbol name. @raise Not_found. *)

val string_lit : ctx -> string -> Mcr_vmem.Addr.t
(** Address of an interned string literal. @raise Not_found. *)

val func_ptr : ctx -> string -> int
(** Value of a function pointer (the function symbol's address). *)

val load : ctx -> Mcr_vmem.Addr.t -> int
val store : ctx -> Mcr_vmem.Addr.t -> int -> unit

val store_words : ctx -> Mcr_vmem.Addr.t -> Mcr_vmem.Aspace.words -> unit
(** [store_words t addr w] stores word [i] of [w] at word [i] from [addr]:
    one {!store} per word in ascending order, a blit per page
    ({!Mcr_vmem.Aspace.write_words}). It charges no simulated time. *)

val find_word : ctx -> Mcr_vmem.Addr.t -> words:int -> (int -> bool) -> int
(** [find_word t addr ~words p] is the index of the first of the [words]
    words from [addr] that satisfies [p], or [-1]: one {!load} per word up
    to the first match ({!Mcr_vmem.Aspace.find_word}), a page at a time.
    Like {!load} it charges no simulated time. *)

val load_field : ctx -> Mcr_vmem.Addr.t -> string -> string -> int
(** [load_field t base tyname field]. *)

val store_field : ctx -> Mcr_vmem.Addr.t -> string -> string -> int -> unit

val field_addr : ctx -> Mcr_vmem.Addr.t -> string -> string -> Mcr_vmem.Addr.t

val write_bytes : ctx -> Mcr_vmem.Addr.t -> string -> unit
val read_string : ctx -> Mcr_vmem.Addr.t -> string

val stack_var : ctx -> string -> string -> Mcr_vmem.Addr.t
(** [stack_var t name tyname] allocates a stack-resident variable for this
    thread and registers it as a tracing root (the paper's overlay stack
    metadata for functions active at quiescent points). The root key is
    ["<class>#<ordinal>:<name>"], stable across versions. *)

(** {1 Custom allocators} *)

val pool : ctx -> ?parent:Mcr_alloc.Pool.t -> ?chunk_words:int -> string -> Mcr_alloc.Pool.t
(** Create (and register with the image) a region allocator. Per-object
    instrumentation follows the image's [instrument_regions] flag. *)

val palloc : ctx -> Mcr_alloc.Pool.t -> ?site:string -> string -> Mcr_vmem.Addr.t
(** Typed pool allocation (tags maintained only in instrumented pools). *)

val palloc_words : ctx -> Mcr_alloc.Pool.t -> int -> Mcr_vmem.Addr.t

val slab : ctx -> string -> slot_words:int -> slots_per_chunk:int -> Mcr_alloc.Slab.t
val slab_alloc : ctx -> Mcr_alloc.Slab.t -> Mcr_vmem.Addr.t
val slab_free : ctx -> Mcr_alloc.Slab.t -> Mcr_vmem.Addr.t -> unit

val masquerade : ctx -> frames:string list -> (unit -> 'a) -> 'a
(** [masquerade t ~frames f] runs [f] with the thread's shadow call stack
    temporarily replaced by [frames] (innermost first). Reinit handlers use
    this to re-create processes with the same creation-time call-stack ID
    as the old version's original fork site — the manual control-migration
    effort the paper quantifies for volatile quiescent points. *)

val find_pool : ctx -> string -> Mcr_alloc.Pool.t
(** Registered pool by name (in this process's image — forked children see
    their rebound copies). @raise Not_found. *)

val find_slab : ctx -> string -> Mcr_alloc.Slab.t
(** Registered slab by name. @raise Not_found. *)

val subpool : ctx -> parent:Mcr_alloc.Pool.t -> string -> Mcr_alloc.Pool.t
(** A nested region (child pool), destroyed with its parent — httpd's
    per-request pools. Not registered with the image: transient pools are
    reached through their parent and never outlive a request. *)

val pool_destroy : ctx -> Mcr_alloc.Pool.t -> unit
val palloc_bytes : ctx -> Mcr_alloc.Pool.t -> string -> Mcr_vmem.Addr.t
(** Copy a string into pool storage; returns its address. *)
