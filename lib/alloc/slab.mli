(** Slab allocator — nginx's shared-memory allocation scheme.

    Fixed-size object classes carved out of chunks from a backing {!Heap}.
    Slabs are always uninstrumented in this prototype (the paper: "slabs and
    nested regions are not yet supported by our current MCR prototype"), and
    free slots are chained through a free list stored {e in the slots
    themselves} — raw next-pointers in reusable memory, the exact
    "allocator abstractions that aggressively use free lists" liveness
    hazard Section 6 discusses. *)

type t

val create : Heap.t -> slot_words:int -> slots_per_chunk:int -> name:string -> t
(** A slab class of objects of [slot_words] words. *)

val alloc : t -> Mcr_vmem.Addr.t
(** Pop a slot (zeroed). Grabs a new chunk when exhausted. *)

val free : t -> Mcr_vmem.Addr.t -> unit
(** Push a slot back. The slot's first word is overwritten with the free-list
    link — a stale-looking pointer that conservative tracing may pick up.
    @raise Invalid_argument on an address not belonging to this slab. *)

val live_slots : t -> int
val chunk_extents : t -> (Mcr_vmem.Addr.t * int) list
(** Opaque areas for conservative scanning. *)

val owns : t -> Mcr_vmem.Addr.t -> bool
(** True when the address falls inside one of the slab's chunks. *)

val slot_base : t -> Mcr_vmem.Addr.t -> Mcr_vmem.Addr.t option
(** Base address of the (allocated or free) slot containing the address. *)

val rebind : t -> Heap.t -> t
(** The forked child's view of this slab over the child's rebound heap. *)

(** {2 Checkpoint state} *)

type state = {
  ss_slot_words : int;
  ss_chunks : Mcr_vmem.Addr.t list;
  ss_free_head : Mcr_vmem.Addr.t;
  ss_live : int;
}

val export_state : t -> state
(** Serializable snapshot of the slab's OCaml-side view. The free-list
    links themselves live in slot memory and travel with the page
    contents; only the list head, chunk extents and live count need
    exporting. *)

val restore_state : t -> state -> (unit, string) result
(** Replace the slab's OCaml-side view with a saved snapshot after the
    backing memory has been re-installed. Never touches the backing heap.
    [Error], leaving the slab as it was, when the image's slot size
    disagrees with the live slab's. *)
