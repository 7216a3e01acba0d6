(** Mutable tracing, part 1: the hybrid precise/conservative heap traversal
    (Section 6).

    Starting from root objects (globals and registered stack variables), the
    analysis follows typed pointer slots precisely and scans opaque slots
    (unions, char arrays, pointer-sized integers, uninstrumented
    allocations) conservatively for {e likely pointers} — aligned words
    whose value falls inside a live object. Likely-pointer targets become
    {e immutable} (cannot be relocated in the new version); objects
    containing likely pointers become {e nonupdatable} (a type change
    raises a conflict).

    The analysis also computes per-object dirtiness from the kernel's
    soft-dirty page bits and the pointer statistics of Table 2. *)

type origin =
  | O_static of string  (** Data symbol. *)
  | O_string of string  (** Interned string literal (rodata). *)
  | O_heap  (** Instrumented main-heap block. *)
  | O_lib  (** Shared-library heap block (or blob). *)
  | O_pool_obj of string  (** Tagged object in an instrumented pool. *)
  | O_pool_chunk of string  (** Opaque chunk of an uninstrumented pool. *)
  | O_slab_chunk of string  (** Opaque slab chunk. *)
  | O_stack of string  (** Stack variable, by stable key. *)
  | O_pinned
      (** Memory pinned in place by a previous update (an [mcr:pin]
          region): carried opaquely so chained updates keep immutable
          objects alive across any number of versions. *)

type obj = {
  id : int;
  addr : Mcr_vmem.Addr.t;
  words : int;
  ty : Mcr_types.Ty.t option;  (** [None] — fully opaque. *)
  ty_name : string option;  (** Registry name, for cross-version pairing. *)
  origin : origin;
  region : Mcr_vmem.Region.kind;
  startup : bool;  (** Allocated during startup (startup-flagged block or static). *)
  site : string option;  (** Allocation-site label (dynamic objects). *)
  callstack : int;  (** Allocation call-stack ID (dynamic objects; 0 if n/a). *)
  mutable reachable : bool;
  mutable immutable_ : bool;
  mutable nonupdatable : bool;
  mutable dirty : bool;
}

(** Table 2: one row side (precise or likely). *)
type side = {
  mutable ptr : int;
  mutable src_static : int;
  mutable src_dynamic : int;
  mutable targ_static : int;
  mutable targ_dynamic : int;
  mutable targ_lib : int;
}

type stats = { precise : side; likely : side }

type t = {
  objects : obj array;  (** Sorted by address. *)
  roots : obj list;
  stats : stats;
  cost_ns : int;  (** Virtual time the analysis would take. *)
  obj_cost : int array;
      (** Per-object share of [cost_ns], indexed by [obj.id]: the first-visit
          charge plus conservative-scan charges for the object's own opaque
          words. Sums over the reachable set exactly to [cost_ns], which is
          what lets {!shard} partition the tracing cost across workers. *)
  reachable_count : int;  (** Cached [List.length (reachable_objects t)]. *)
  reachable_words : int;  (** Total words of reachable objects. *)
  injected_pin : obj option;
      (** The object a {!Mcr_fault.Fault.Likely_misclassification} fault
          pinned (marked immutable + nonupdatable as if a spurious likely
          pointer targeted it). {!Transfer.run} turns it into a conflict.
          [None] on unfaulted runs. *)
}

val analyze :
  ?policy:Mcr_types.Ty.policy ->
  ?tag_free:bool ->
  ?cost_since:int ->
  ?trace:Mcr_obs.Trace.t ->
  ?fault:Mcr_fault.Fault.t ->
  Mcr_program.Progdef.image ->
  t
(** Analyze a quiescent process image.

    [cost_since] is an {!Mcr_vmem.Aspace.write_seq} mark: the traversal and
    its results (reachability, edges, pins, dirty flags) are unchanged, but
    [cost_ns] only charges objects overlapping pages written after the
    mark. Pre-copy delta rounds use this so re-tracing an almost-unchanged
    graph costs almost nothing, without perturbing what the final transfer
    sees. Honors the image's instrumentation
    config (uninstrumented pools/slabs yield opaque chunks; without dynamic
    instrumentation the lib heap is one opaque blob) and the version's
    [Obj_handler] annotations (which reveal hidden layouts of opaque
    globals). The analysis cost is returned, not charged — multiprocess
    tracing runs in parallel, so the caller charges the maximum across
    processes.

    [tag_free:true] ignores the in-band data-type tags (the Kitsune-style
    configuration the paper contrasts with, Section 8): every dynamic
    object becomes opaque, so all heap pointers degrade to likely pointers
    and their targets to immutable — the ablation quantifying what the tags
    buy.

    With [?trace] the analysis emits one [objgraph.edges] instant event
    (category ["objgraph"], under the analyzed process's pid) carrying the
    Table-2 edge classification — precise and likely pointer counts by
    source/target region — plus reachable/pinned object counts and the
    analysis cost.

    With [?fault], an armed {!Mcr_fault.Fault.Likely_misclassification}
    pins one reachable typed dynamic object as if a spurious likely
    pointer targeted it (recorded in [injected_pin] and in the likely-edge
    stats). *)

val resolve : t -> Mcr_vmem.Addr.t -> (obj * int) option
(** Object containing an address, with the word offset inside it. *)

val find_static : t -> string -> obj option
(** Static object by symbol name. *)

val iter_reachable : t -> (obj -> unit) -> unit
(** Iterate the reachable objects in address order without materializing a
    list — the order {!reachable_objects} returns them in. *)

val reachable_objects : t -> obj list
val dirty_objects : t -> obj list

(** {2 Shard partitioning (parallel state transfer)}

    The worker-pool transfer model partitions the reachable set into [W]
    contiguous address-range shards balanced by word count, so tracing and
    copy charges can be accounted per-shard and downtime charged as the
    critical path ([max] over shards) instead of the sequential sum. The
    partition is a pure accounting overlay: execution order is unchanged,
    so results are byte-identical for every [W]. *)

type shard_plan = {
  sp_workers : int;
      (** Effective worker count: requested workers clamped to [1 .. number
          of reachable objects]. *)
  sp_shard_of : int array;
      (** [obj.id -> shard index], [-1] for unreachable objects. *)
  sp_objects : int array;  (** Per-shard reachable-object count. *)
  sp_words : int array;  (** Per-shard word count (the balance target). *)
  sp_trace_ns : int array;
      (** Per-shard tracing cost: sum of {!t.obj_cost} over the shard.
          Sums to {!t.cost_ns}; its max is the tracing critical path. *)
}

val shard : t -> workers:int -> shard_plan
(** Deterministic partition of the reachable set into at most [workers]
    shards: address-order contiguous ranges, cut greedily at word-count
    prefix-sum targets, then rebalanced by shifting boundary objects toward
    the lighter neighbour (bounded work-stealing) until no move lowers a
    pair's heavier side. Every shard holds at least one object.
    @raise Invalid_argument if [workers < 1]. *)

val trace_critical_ns : t -> workers:int -> int
(** [max] of [sp_trace_ns] for the plan {!shard} builds — the tracing cost
    on the critical path. Equals [cost_ns] when [workers = 1]. *)

val sum_stats : stats list -> stats
(** Field-wise sum (a fresh record; the inputs are not modified). *)

val pp_stats : Format.formatter -> stats -> unit
