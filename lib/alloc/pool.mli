(** Region ("pool") allocator — the custom allocation scheme of nginx and
    Apache httpd (nested regions) in the paper's evaluation.

    A pool bump-allocates out of large chunks obtained from a backing
    {!Heap}. By default pools are {e uninstrumented}: a chunk appears to
    mutable tracing as one big opaque object, so every pointer stored in
    pool memory becomes a likely pointer and its target immutable — the
    dominant source of likely pointers in Table 2 (httpd: 16,067).

    With per-object instrumentation enabled (the paper's [nginxreg]
    configuration), [palloc] additionally maintains in-band tags inside the
    chunk, making pool objects precisely traceable at the cost of extra
    allocator work (the 19.2% worst-case overhead the paper reports). *)

type t

type stats = {
  mutable pallocs : int;
  mutable tag_words : int;
  mutable chunks_grabbed : int;
}

val create : Heap.t -> ?parent:t -> ?instrument:bool -> ?chunk_words:int -> name:string -> unit -> t
(** [create heap ~name ()] makes a pool drawing chunks from [heap].
    [instrument] defaults to false. [chunk_words] defaults to 1024.
    When [parent] is given the new pool is destroyed with its parent
    (httpd's nested regions). *)

val name : t -> string
val is_instrumented : t -> bool
val stats : t -> stats

val palloc : t -> ?ty_id:int -> ?site:int -> ?callstack:int -> int -> Mcr_vmem.Addr.t
(** Bump-allocate [words] zeroed words. Grabs a new chunk when the current
    one is exhausted (oversized requests get a dedicated chunk). *)

val reset : t -> unit
(** Drop all objects but keep the pool usable; frees all chunks except the
    first. Child pools are destroyed. *)

val destroy : t -> unit
(** Destroy the pool and every descendant; returns all chunks to the heap.
    Using a destroyed pool raises [Invalid_argument]. *)

val chunk_extents : t -> (Mcr_vmem.Addr.t * int) list
(** [(base, words)] of every chunk owned by this pool (excluding children) —
    the opaque areas conservative tracing must scan when the pool is
    uninstrumented. *)

val iter_objects : t -> (Heap.block -> unit) -> unit
(** Visit tagged objects in an instrumented pool's chunks (in-band walk).
    Yields nothing for uninstrumented pools. *)

val children : t -> t list

val rebind : t -> Heap.t -> t
(** The forked child's view of this pool: same chunk addresses over the
    child's rebound backing heap. Child pools are rebound recursively; the
    result is detached from the original's parent. *)

(** {2 Checkpoint state} *)

type chunk_state = {
  cs_base : Mcr_vmem.Addr.t;
  cs_words : int;
  cs_bump : int;
  cs_micro : bool;  (** Whether the chunk carries in-band tags. *)
}

type state = {
  st_name : string;
  st_instrument : bool;
  st_chunk_words : int;
  st_pallocs : int;
  st_tag_words : int;
  st_chunks_grabbed : int;
  st_chunks : chunk_state list;
  st_kids : state list;
}

val export_state : t -> state
(** Serializable snapshot of the pool tree's OCaml-side view (chunk
    extents, bump cursors, stats, children) for the checkpoint image. The
    in-band tags of instrumented chunks live in pool memory and travel
    with the page contents. *)

val restore_state : t -> state -> (unit, string) result
(** Replace the pool's OCaml-side view with a saved snapshot, after the
    backing memory has been re-installed. Never allocates from or frees to
    the backing heap — the chunk blocks named in the snapshot are already
    present in the restored in-band heap structure. Micro heaps are
    re-attached over the restored tags; children are rebuilt recursively.
    [Error] names the first chunk whose micro heap does not attach
    ({!Heap.attach}); the pool is then left as it was. *)
