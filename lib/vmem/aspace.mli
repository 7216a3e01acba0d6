(** Per-process virtual address spaces.

    An address space is a set of page-backed {!Region.t} mappings holding
    8-byte words. Pointers are stored as plain integer words — the ambiguity
    that makes conservative tracing necessary is real here, not simulated
    away.

    Pages are views onto refcounted {e frames}. Normally a page owns its
    frame exclusively; state transfer may {!share_page} a byte-identical
    frame into another address space (the zero-copy remap), after which any
    write through either page copies the frame first (copy-on-write), so
    neither image can mutate the other.

    A frame holds its page in one of three forms, so that host memory
    follows the words a page holds rather than the pages stored to. A
    page nobody has stored a non-zero word to since it was mapped is
    backed by one shared, immutable all-zero string, the zero bytes, as a
    kernel backs such pages with its zero page. Its first non-zero store
    makes it sparse: a short sorted list of its non-zero words with their
    indices, at most 32, read by binary search. A store that would pass 32
    non-zero words moves the page to bytes of its own in {!read_bytes}'
    word form, where it stays. Likewise a page nothing has stored to,
    shared, stamped or marked since it was mapped has no page or frame
    record of its own: every such page shares one immutable record, and a
    page gets its own on its first mutation. This is host-side only: no
    reader, fingerprint or image depends on the form, frame records and
    their refcounts are per owned page, and an unowned page reads as a
    fresh page with its own zeroed frame, so {!shared_frame_count},
    {!resident_bytes} and copy-on-write behave as if every page had its
    own bytes. The bytes of frames that {!unmap} leaves unreferenced are
    reused by later pages and copies.

    Dirtiness mirrors the Linux soft-dirty mechanism MCR builds on, but is
    generation-based: every tracked write bumps the space-wide {!write_seq}
    and stamps the page. A consumer owns a named {e epoch} — a saved mark —
    and a page is dirty in that epoch iff it was written after the mark
    ({!epoch_reset}/{!epoch_page_dirty}). Arbitrarily many consumers (the
    startup checkpoint, pre-copy delta rounds, benches) coexist without
    clobbering each other. The named-epoch API is the only spelling: the
    startup checkpoint owns the ["startup"] epoch like any other
    consumer. *)

type t

exception Fault of Addr.t
(** Raised on access to an unmapped or misaligned address — the simulated
    SIGSEGV. *)

val create : ?layout_bias:int -> unit -> t
(** [create ()] is an empty address space. [layout_bias] shifts the default
    placement base of every region kind by that many pages, emulating the
    address-space layout differences between program versions (ASLR,
    recompilation) that force mutable tracing to relocate objects. *)

val layout_bias : t -> int

val clone : t -> t
(** Deep copy: pages, regions, epochs and dirty stamps. Every page with
    a record of its own gets a private record and frame; only pages
    holding non-zero words copy their contents (a sparse page only its
    entries), zero pages stay on the zero bytes. A page nothing has mutated stays on the shared record, so
    it costs the copy one word. Used by process spawn (the fork
    analog). *)

type placement =
  | Fixed of Addr.t  (** Map exactly here (MAP_FIXED); fails on overlap. *)
  | Near of Region.kind  (** First free gap in the kind's customary area. *)

val ceiling : int
(** The end of every address space, 4 GiB (the 32-bit layout the placement
    areas model): no mapping reaches past it. The page table holds one
    entry per mapped page, so the bound also caps what a region read from
    outside input can cost. *)

val map : t -> ?name:string -> placement -> size:int -> Region.kind -> Addr.t
(** [map t placement ~size kind] creates a zeroed mapping and returns its
    base. [size] is rounded up to whole pages. The pages start on the
    shared record and the zero bytes, so mapping allocates one word per
    page and no page contents; each page gets a record of its own on its
    first mutation, entries on its first non-zero store and bytes of its
    own past 32 non-zero words.
    @raise Invalid_argument on overlap with an existing region, or when
    the mapping would end past {!ceiling}. *)

val unmap : t -> Addr.t -> unit
(** [unmap t base] removes the region based at [base], releasing the
    frame reference of each page with a record of its own.
    @raise Not_found if no region has that base. *)

val regions : t -> Region.t list
(** All regions, sorted by base address. *)

val find_region : t -> Addr.t -> Region.t option
(** The region containing an address, if any. *)

val is_mapped_word : t -> Addr.t -> bool
(** True when the address is word-aligned and inside a mapping. *)

val read_word : t -> Addr.t -> int
(** @raise Fault on unmapped or unaligned access. *)

val write_word : t -> Addr.t -> int -> unit
(** Tracked write: bumps {!write_seq} and stamps the page (making it dirty
    in every epoch whose mark precedes the new sequence value). Breaks
    frame sharing first. @raise Fault as {!read_word}. *)

val write_word_untracked : t -> Addr.t -> int -> unit
(** Write without advancing dirty tracking. Used when the kernel itself
    populates memory (image loading, state transfer into the new version),
    which must not pollute any consumer's epoch. Still breaks frame
    sharing — untracked does not mean invisible. *)

val find_word : t -> Addr.t -> words:int -> (int -> bool) -> int
(** [find_word t a ~words p] is the index [i], counted in words from [a],
    of the first of the [words] words from [a] that satisfies [p], or [-1]
    when none does: exactly a {!read_word} per word in ascending address
    order that stops at the first match. Each page is resolved once, and
    the scan itself allocates nothing. A range that runs into an unmapped
    page raises the same {!Fault} as {!read_word} there, unless a word
    before that page matched. [p] must not store into [t]. *)

val fold_runs :
  t -> Addr.t -> words:int -> init:'a -> f:('a -> Bytes.t -> int -> int -> 'a) -> 'a
(** [fold_runs t a ~words ~init ~f] folds [f acc page i n] over the page
    runs covering the [words] words from [a]: each run is words [i] to
    [i + n - 1] of [page], word [j] at byte [8 * j] in {!read_bytes}' form.
    [page] is lent for the call only, and is valid only during it: it is
    the page's own bytes, the zero bytes, or for a sparse page one scratch
    page that the next lend of a sparse page rewrites, this fold's next
    run or a reader [f] calls. [f] must not write to [page] or keep it.
    @raise Fault as {!read_word}. *)

val fold_nonzero_runs :
  t -> Addr.t -> words:int -> init:'a -> f:('a -> Addr.t -> Bytes.t -> int -> int -> 'a) -> 'a
(** [fold_nonzero_runs t a ~words ~init ~f] is {!fold_runs} over only the
    runs that hold a non-zero word, each passed with its address:
    [f acc addr page i n] for the run of words [i] to [i + n - 1] of
    [page], whose first word is at [addr]. Which runs it visits depends on
    their words alone, not on how they are stored: a run on the zero bytes
    is skipped without reading its words, a run of private bytes is
    skipped when it scans as zeros (a whole page by one compare), a sparse
    run when no entry falls in it. [page] is lent as in {!fold_runs}:
    valid only during the call, never to be kept.
    @raise Fault as {!read_word}, after the calls for the runs before the
    unmapped page. *)

val iter_nonzero : t -> Addr.t -> words:int -> (int -> unit) -> unit
(** [iter_nonzero t a ~words f] applies [f] to each non-zero word of the
    [words] words from [a], in ascending address order: exactly the calls
    of a loop applying [f] to each non-zero {!read_word} in turn, raising
    the same {!Fault} after the same calls. A run on the zero bytes is
    skipped without reading its words, and a sparse run visits only its
    entries. [f] must not store into [t]. *)

val page_is_zero : t -> Addr.t -> bool
(** Whether every word of the page holding the address is 0. A page on
    the zero bytes, or a sparse one, answers without reading its words.
    @raise Fault if the page is unmapped. *)

val pages_equal : t -> Addr.t -> t -> Addr.t -> bool
(** [pages_equal t a u b] is whether the page holding [a] in [t] and the
    page holding [b] in [u] hold the same words: exactly the two pages'
    words read by {!read_word} and compared one by one. Pages on one frame,
    or both on the zero bytes, answer without reading their words, and
    two sparse pages compare their entries.
    Allocates nothing. @raise Fault if either page is unmapped. *)

val copy_words : src:t -> Addr.t -> dst:t -> Addr.t -> words:int -> unit
(** Cross-space copy; tracked on the destination side as untracked writes
    (state transfer is a kernel-mediated operation). Pages are resolved
    once per run on each side, not once per word. *)

val copy_words_tracked : src:t -> Addr.t -> dst:t -> Addr.t -> words:int -> unit
(** Like {!copy_words} but with the exact observable semantics of a
    {!write_word} per word on the destination: the write sequence advances
    by one per word and each page's last-write stamp is the sequence value
    after the final word written to it. Used for in-place copies the
    program could itself have made. *)

val zero_fill : t -> Addr.t -> words:int -> unit
(** [zero_fill t a ~words] zeroes the [words] words from [a] with the exact
    observable semantics of [words] {!write_word}[ _ 0] calls in ascending
    address order: the same contents, {!write_seq} advanced by [words],
    each page stamped with the sequence value after its last word, every
    covered page touched and unshared. A page still on the zero bytes stays
    there. On a range that runs into an unmapped page it raises the same
    {!Fault}, after zeroing every word before that page. Pages are resolved
    once per run, not once per word. *)

val zero_untracked : t -> Addr.t -> words:int -> unit
(** [zero_untracked t a ~words] is {!zero_fill} without the dirty stamps:
    the exact observable semantics of [words] {!write_word_untracked}[ _ 0]
    calls in ascending address order. Every covered page is unshared and
    touched, no stamp or {!write_seq} moves, a page on the zero bytes
    stays there without its words being read, and a range that runs into
    an unmapped page raises the same {!Fault} after the same stores. *)

type words
(** A run of words in {!read_bytes}' byte form, built once to be stored
    many times. *)

val words_of_fn : int -> (int -> int) -> words
(** [words_of_fn n f] is the run [f 0], ..., [f (n - 1)].
    @raise Invalid_argument if [n] is negative. *)

val write_words : t -> Addr.t -> words -> unit
(** [write_words t a w] stores word [i] of [w] at word [i] from [a] under
    the {!zero_fill} contract: the exact observable semantics of one
    {!write_word} per word in ascending address order. Each page run into
    bytes is one blit, and a run into a sparse page drops the run's
    entries in one pass and adds only its non-zero words; a page still on
    the zero bytes stays there when its part of the run is all zeros. *)

val read_bytes : t -> Addr.t -> words:int -> Bytes.t -> pos:int -> unit
(** [read_bytes t a ~words buf ~pos] writes the [words] words from [a] into
    [buf] from byte [pos], each as the 8 little-endian bytes of its bits
    0-62 (the top bit of the last byte is 0) — the checkpoint image's word
    encoding. Word [i] of the range is [read_word t (a + 8i)]. A page run
    is one blit, from the scratch page a sparse page is spelled into. On a range that runs into an unmapped page it raises the
    same {!Fault} as {!read_word}, after filling every word before that
    page.
    @raise Invalid_argument if the [8 * words] bytes from [pos] are not
    inside [buf]. *)

val write_bytes_untracked : t -> Addr.t -> words:int -> string -> pos:int -> unit
(** [write_bytes_untracked t a ~words src ~pos] stores [words] words from
    [a], word [i] being bits 0-62 of the little-endian u64 at byte
    [pos + 8i] of [src], with the exact semantics of one
    {!write_word_untracked} per word in ascending address order: the same
    contents, every covered page touched and unshared, no dirty stamp or
    {!write_seq} moved, and the same {!Fault} after the same stores on a
    range that runs into an unmapped page. A page still on the zero bytes
    stays there when its part of the range is all zeros. Pages are
    resolved once per run, not once per word.
    @raise Invalid_argument if the [8 * words] bytes from [pos] are not
    inside [src]. *)

(** {2 Dirty epochs} *)

val epoch_reset : t -> name:string -> unit
(** Begin (or restart) the named consumer's tracking epoch: its mark
    becomes the current {!write_seq}. Creating an epoch is implicit. *)

val epoch_find : t -> name:string -> int option
(** The named epoch's mark, [None] when the epoch has never been created —
    lets a delta-round consumer distinguish "first round" from "mark 0". *)

val epoch_remove : t -> name:string -> unit
(** Forget the named epoch entirely, returning it to the never-created
    state ({!epoch_find} yields [None]). A consumer whose session ended
    (e.g. a rolled-back update's pre-copy) removes its epoch so a later
    session starts from "first round", not from a stale mark. *)

val epoch_page_dirty : t -> name:string -> Addr.t -> bool
(** Whether the page containing the address saw a tracked write after the
    named epoch's mark. Unmapped pages are never dirty. *)

val epoch_dirty_pages : t -> name:string -> Addr.t list
(** Base addresses of the named epoch's dirty pages, sorted ascending. *)

val write_seq : t -> int
(** Monotone per-space write sequence number, bumped by every tracked
    write. Epoch marks are saved values of this counter; raw marks remain
    available for consumers that manage their own storage. *)

val page_written_since : t -> Addr.t -> seq:int -> bool
(** Whether the page containing the address has seen a tracked write after
    the given {!write_seq} mark. Unmapped pages are never "written". *)

val range_written_since : t -> Addr.t -> words:int -> seq:int -> bool
(** Whether any page overlapping [\[addr, addr + words)] has seen a tracked
    write after the mark. *)

(** {2 Inherited content and zero-copy page remap} *)

val mark_inherited : t -> Addr.t -> words:int -> unit
(** Taint the pages overlapping [\[addr, addr + words)] as holding content
    installed by state transfer rather than by this program's own startup.
    Inherited content diverges permanently from what deterministic startup
    replay would re-create, so object-graph analysis must treat it as dirty
    in every later update even though the installing stores were
    untracked. The taint survives across updates (transfer re-marks the
    pages it populates in each new image). *)

val page_inherited : t -> Addr.t -> bool
(** Whether the page containing the address carries the inherited taint. *)

val share_page : src:t -> Addr.t -> dst:t -> Addr.t -> unit
(** [share_page ~src src_page ~dst dst_page] remaps [src]'s frame into
    [dst]: the destination page drops its own frame and references the
    source frame (refcount +1). Only correct when the two pages are already
    byte-identical — the caller (state transfer) verifies equality first,
    so sharing never changes observable content, only the transfer cost.
    The destination page is marked inherited.
    @raise Invalid_argument unless both addresses are page-aligned.
    @raise Fault if either page is unmapped. *)

val shared_frame_count : t -> int
(** Number of pages whose frame is shared with another page ([refs > 1]) —
    the refcount-leak witness: outside an update window this must be 0.
    The window ends when the dying side (new members on rollback, old
    images on commit) exits: exit unmaps its address space, releasing the
    shared references, so the survivor keeps its frames without copying. *)

(** {2 Checkpoint export/import}

    Kernel-mediated operations used by the persistent checkpoint image
    (lib/image): a save exports the exact dirty-tracking state alongside
    page contents, and a restore re-installs it so that dirty-only and
    pre-copy updates on the restored instance behave exactly as they would
    have on the original. *)

type page_state = {
  ps_page : Addr.t;  (** Page base address. *)
  ps_last_write_seq : int;
  ps_touched : bool;
  ps_inherited : bool;
}

val page_states : t -> page_state list
(** Per-page dirty-tracking state for every mapped page, sorted by page
    base address. *)

val restore_page_state : t -> page_state -> unit
(** Re-stamp the page based at [ps_page] with the saved state. Does not
    touch page contents. A fresh page's state (stamp 0, untouched, not
    inherited) put back on a page whose frame is unshared and all zero
    returns it to the shared untouched record, one word of host memory.
    @raise Invalid_argument unless the address is page-aligned.
    @raise Fault if the page is unmapped. *)

val epochs : t -> (string * int) list
(** Every named epoch with its mark, sorted by name. *)

val set_write_seq : t -> int -> unit
(** Overwrite the space-wide write sequence counter. Only meaningful while
    restoring a checkpoint image — epoch marks and page stamps saved
    against the original counter are only valid once it is re-installed
    too. *)

val restore_epochs : t -> (string * int) list -> unit
(** Replace the whole epoch table with the given [(name, mark)] entries —
    the restore-side counterpart of {!epochs}. Epochs the live space had
    but the checkpoint did not are forgotten; a name given twice keeps its
    last mark. *)

val resident_bytes : t -> int
(** Total bytes of mapped pages. *)

val touched_bytes : t -> int
(** Bytes of pages ever written — the RSS analog (Linux only backs pages
    with frames when touched). *)

val pp : Format.formatter -> t -> unit
(** Region map listing, /proc/pid/maps style. *)
