(** Free-list heap allocator with in-band metadata tags.

    This is the ptmalloc analog plus the paper's allocator instrumentation:
    "change all the allocator invocations to call ad-hoc wrapper functions
    that maintain relocation and data type tags in in-band allocator
    metadata" (Section 6).

    The heap region's words are the only authority: every block starts with
    a header word encoding its size and status, so the whole heap can be
    walked from the region base — which is also how mutable tracing resolves
    an arbitrary address to its containing live object. Two caches derive
    from those words and are rebuilt from them by a walk: a payload table
    (payload address to header) and a free index (the free blocks' headers
    in address order), which lets the allocator step from free block to
    free block without reading an allocated header. Instrumented
    allocations carry two extra header words (type id + allocation site,
    call-stack id); uninstrumented allocations (shared libraries, custom
    allocator chunks) carry only the size header and therefore no type
    information — they are what forces conservative tracing.

    Startup-time support implements the paper's {e global separability}:
    with deferred free mode on (during startup), freed blocks are quarantined
    so no startup-time address is ever reused, and all blocks allocated
    before {!end_startup} are flagged startup-time in their headers. *)

type t

(** A live allocation, as discovered from in-band metadata. *)
type block = {
  header : Mcr_vmem.Addr.t;  (** Address of the header word. *)
  payload : Mcr_vmem.Addr.t;
  words : int;  (** Payload words. *)
  instrumented : bool;
  startup : bool;
  ty_id : int;  (** 0 when uninstrumented. *)
  site : int;  (** Allocation-site id; 0 when uninstrumented. *)
  callstack : int;  (** Call-stack id at allocation; 0 when uninstrumented. *)
}

(** Operation counters, consumed by the run-time cost model. *)
type stats = {
  mutable allocs : int;
  mutable frees : int;
  mutable tag_words : int;  (** Metadata words maintained (instrumentation cost). *)
}

val create :
  Mcr_vmem.Aspace.t ->
  ?kind:Mcr_vmem.Region.kind ->
  ?instrumented:bool ->
  name:string ->
  size:int ->
  unit ->
  t
(** [create aspace ~name ~size ()] maps a fresh heap region of [size] bytes.
    [instrumented] (default true) decides whether allocations carry type
    tags. [kind] defaults to [Heap]; shared-library allocators pass [Lib]. *)

val of_region : Mcr_vmem.Aspace.t -> base:Mcr_vmem.Addr.t -> size:int -> instrumented:bool -> t
(** Adopt an already-mapped region as an empty heap (used when the new
    version re-creates the old heap at a fixed address). *)

val rebind : t -> Mcr_vmem.Aspace.t -> t
(** A view of this heap's layout inside another address space — the forked
    child's copy. Walks the in-band headers (which the fork copied verbatim)
    to rebuild both caches, so the child's free index equals the parent's,
    and carries over the deferral/startup state. *)

val aspace : t -> Mcr_vmem.Aspace.t
val base : t -> Mcr_vmem.Addr.t
val limit : t -> Mcr_vmem.Addr.t
val instrumented : t -> bool
val stats : t -> stats

exception Out_of_memory

val malloc : t -> ?ty_id:int -> ?site:int -> ?callstack:int -> int -> Mcr_vmem.Addr.t
(** [malloc t words] returns the payload address of a fresh zeroed block.
    First-fit with block splitting; adjacent free blocks coalesce lazily.
    Costs O(free blocks visited): it steps through the free index from the
    heap base, rewriting each visited block's header as it coalesces, and
    never reads an allocated header.
    @raise Out_of_memory when no gap fits. *)

val malloc_aligned : t -> ?ty_id:int -> ?site:int -> ?callstack:int -> int -> Mcr_vmem.Addr.t
(** Like {!malloc} but the payload starts on a page boundary — how ptmalloc
    segregates large allocations, which keeps big startup-time tables from
    sharing pages with hot small objects (important for soft-dirty
    precision). @raise Out_of_memory when no free block fits, or when the
    first that fits would leave a one-word gap after the payload (nothing
    is carved then). *)

val malloc_at : t -> at:Mcr_vmem.Addr.t -> ?ty_id:int -> ?site:int -> ?callstack:int -> int -> unit
(** Global reallocation (Section 5): carve a block whose payload sits at
    exactly [at]. Used by mutable reinitialization to re-create immutable
    heap objects at their old-version addresses in a fresh heap.
    @raise Invalid_argument if the needed words are not inside a free
    block, or would leave a one-word gap before or after them; in both
    cases the block is left as it was. *)

val free : t -> Mcr_vmem.Addr.t -> unit
(** Free by payload address. In deferred mode the block is quarantined
    instead (no address reuse until {!end_startup}).
    @raise Invalid_argument on a non-live or foreign address. *)

val end_startup : t -> unit
(** Flush quarantined frees, stop flagging new blocks as startup-time, and
    disable deferral. Call when program startup completes. *)

val restart_startup : t -> unit
(** Re-enter the startup phase: a forked child's startup runs from the fork
    to its own first quiescent point, so its allocations are startup-time
    (re-created by the new version's reinitialization) even though the
    parent's startup ended long ago. *)

val in_startup : t -> bool
(** True until {!end_startup} is called. *)

val block_of_payload : t -> Mcr_vmem.Addr.t -> block option
(** Live block whose payload starts exactly at the address. *)

val block_containing : t -> Mcr_vmem.Addr.t -> block option
(** Live block whose payload range contains the address (interior pointers
    resolve too, as conservative tracing requires). *)

val iter_live : t -> (block -> unit) -> unit
(** Visit every live block in address order. *)

val live_words : t -> int
(** Total live payload words. *)

val metadata_words : t -> int
(** Header words currently consumed by live blocks — the in-band metadata
    footprint for memory accounting. *)

val attach :
  Mcr_vmem.Aspace.t ->
  base:Mcr_vmem.Addr.t ->
  size:int ->
  instrumented:bool ->
  (t, string) result
(** Adopt an extent that {e already} holds a valid block tiling (e.g. just
    re-installed from a checkpoint image): no headers are written, both
    caches are rebuilt from the in-band state, and the heap comes up
    past its startup phase. [Error] as {!reload} when the extent holds no
    tiling. Contrast {!of_region}, which formats the extent as one free
    block. *)

val refresh : t -> unit
(** Rebuild both caches in place by walking the in-band headers — the
    allocator's authoritative state. Call after a checkpoint-image
    restore overwrites the heap region's contents underneath this
    descriptor ({!rebind} is the same walk for a {e different} address
    space). *)

val reload : t -> (unit, string) result
(** {!refresh}, for contents nothing vouches for (a checkpoint image):
    [Error] instead of an exception when a header is unmapped or lacks the
    magic, or when the blocks do not end exactly at the limit. The caches
    are then partly rebuilt and the heap must not be used. *)

val restore_stats : t -> allocs:int -> frees:int -> tag_words:int -> unit
(** Overwrite the accounting counters with values saved in a checkpoint
    image, so restored instances report continuous allocator statistics. *)

val validate : t -> (unit, string) result
(** Walk the whole heap checking structural invariants: headers carry the
    magic, blocks tile the region exactly, the free index holds exactly the
    free headers the walk finds, and every cached payload is a live block.
    Used by property tests and debugging. *)
