(** Persistent checkpoint images.

    Everything the live-update machinery checkpoints today dies with its
    kernel: {!Mcr_core.Manager.update} transfers state between two
    in-memory versions of one process tree. This module gives the same
    state a {e durable} form — a versioned, hash-integrity-checked on-disk
    image of a quiescent program (the moral equivalent of DragonFly BSD's
    [sys_checkpoint] ELF core: VM segments, fd/vnode tables, thread
    positions, signal state) — and the inverse operation that materializes
    the image into a fresh kernel and resumes it serving.

    {b Wire format.} An image is a flat section table:

    {v
    magic "MCRIMAGE" | u64 format_version | u64 section_count
    section := tag[4] | name | payload | u64 fnv64(payload)
    trailer := u64 fnv64(all preceding bytes)
    v}

    where strings are [u64 length | bytes] and all integers are 64-bit
    little-endian. A region's content is its non-zero pages only, as runs
    of whole pages ([u64 run_count], then per run
    [u64 first_page | u64 word_count | words]); a page no run covers is
    zero, so an image costs what the live state holds, not what is
    mapped. Sections are identified by a 4-byte ASCII tag ([META],
    [PROC], [POLI], [ATMP], [FLIT]); decoders {e skip} sections whose tag
    they do not know, so later format revisions can add sections without
    bumping {!format_version}. Every decode failure is a typed {!error}
    naming the failing section — there are no ad-hoc exceptions on this
    surface.

    {b Restore semantics.} Simulated threads are OCaml effect
    continuations and do not serialize. A restore therefore re-launches
    the {e same program version} in the target kernel (deterministic
    startup re-creates listeners, threads and the address-space skeleton),
    then installs the image over the settled processes: region sets are
    reconciled, every non-zero page of every saved region is written back
    untracked and every other page of it zeroed, and the exact
    dirty-tracking state (write sequence, page
    stamps, named epoch marks, inherited taint) plus allocator state
    (in-band heap headers travel with the pages; OCaml-side caches are
    rebuilt by walking them) are re-installed. The result fingerprints
    byte-identically to the saved instance, resumes serving, and
    subsequent dirty-only / pre-copy live updates behave exactly as they
    would have on the original. In-flight connections of the saved
    instance are dropped — the same contract as process-level
    checkpoint-restart on a real socket. *)

module P = Mcr_program.Progdef

val format_version : int
(** Current on-disk format revision (3: regions store only their non-zero
    pages, and the recorded fingerprint is the {!aspace_fingerprint} in
    which an all-zero page folds nothing). Revision 2 stored the same
    pages under a fingerprint that folded every word; revision 1 also
    stored every word. Both are refused with {!Version_skew}: a v2 image
    would decode but could never reproduce its fingerprint at install. *)

val magic : string
(** The 8-byte magic, ["MCRIMAGE"]. *)

(** {1 Errors} *)

type error =
  | Bad_magic  (** The file does not start with {!magic}. *)
  | Version_skew of { found : int; expected : int }
      (** The file's format version is not the one this code speaks. *)
  | Truncated of { section : string }
      (** The byte stream ended inside the named section (["header"] /
          ["trailer"] when the fixed framing itself is cut short). *)
  | Hash_mismatch of { section : string }
      (** The named section's content hash — or, for ["image"], the
          whole-image trailer hash — does not match its bytes. *)
  | Missing_section of string
      (** A required section (e.g. ["meta"]) is absent. *)
  | Malformed of { section : string; reason : string }
      (** The section's bytes decoded but violate the schema. *)
  | Program_mismatch of { image : string; target : string }
      (** Restore target runs a different program than the image holds. *)
  | Version_mismatch of { image : string; target : string }
      (** Restore target runs a different version tag than the image. *)
  | Fingerprint_mismatch of { image : int; restored : int }
      (** Post-install verification failed: the restored address space
          does not fingerprint to the image's recorded value. *)
  | Io of string  (** Host filesystem failure while reading/writing. *)

val error_to_string : error -> string
val pp_error : Format.formatter -> error -> unit

(** {1 The image} *)

type t

val prog : t -> string
(** Program name the image holds (e.g. ["nginx"]). *)

val version_tag : t -> string
(** Version tag of the held program (restore re-launches exactly it). *)

val clock_ns : t -> int
(** The saved kernel's virtual clock at capture time. *)

val fingerprint : t -> int
(** The root process's address-space fingerprint recorded at capture —
    {!aspace_fingerprint} of the saved root. Install verifies the restored
    space reproduces it bit-for-bit. *)

val proc_count : t -> int
val region_count : t -> int

val total_words : t -> int
(** Total words of every saved region of every process, zero pages
    included: the words the image stands for, not the words it stores. *)

val policy_text : t -> string option
(** The saving manager's policy, rendered by [Policy.to_kv] — opaque at
    this layer, parsed back by the core when replaying. *)

val target_tag : t -> string option
(** When the image was snapped at an update's quiescent point: the version
    the update was heading to. *)

val flight_json : t -> string option
(** When the image belongs to a completed update attempt: that attempt's
    flight record, JSON-encoded — the evidence [mcr-postmortem --replay]
    checks its offline re-run against. *)

val layout : t -> (string * string * int) list
(** [(tag, name, payload_bytes)] for every section the image encodes to,
    in file order — the table doc/IMAGE.md documents. *)

(** {1 Capture and persistence} *)

val aspace_fingerprint : prog:string -> Mcr_vmem.Aspace.t -> int
(** [Fnv.combine] folded from [Fnv.string prog] over, for each region in
    address order, [Fnv.string] of its name, [Fnv.int] of its base and
    [Fnv.int] of its size, then, for each page of the region holding a
    non-zero word in address order, [Fnv.int] of the page's address
    followed by [Fnv.int] of each of its words. A page holding only zeros
    folds nothing, whether it is stored as a zero page or not, so the
    cost follows the non-zero pages; the size and the page addresses keep
    layout and position in the witness. Every image stores this value and
    install checks it, so a changed definition bumps {!format_version}.
    The canonical byte-identity witness shared with
    [Fleet.image_fingerprint]. *)

val capture :
  Mcr_simos.Kernel.t ->
  members:P.image list ->
  ?policy_text:string ->
  ?target_tag:string ->
  ?flight_json:string ->
  unit ->
  t
(** Snapshot the program's full state. [members] is the live process set,
    root first (a {!Mcr_core.Manager} passes its current images). The
    caller is responsible for the instant being a sensible one — the
    manager captures at quiescence; the cooperative scheduler makes any
    capture instant-atomic. *)

val with_flight_json : t -> string -> t
(** The image with its flight-record section replaced — the manager
    attaches the attempt's record once the attempt finishes. *)

val encode : t -> string
(** The image's bytes, exactly as {!write} puts them in the file. *)

val decode : string -> (t, error) result
(** Total: any bytes give [Ok] or a typed {!error}, never an exception.
    The decoded image keeps the string: its regions' words are read from
    it in place at {!install}, not copied out. Decode also checks what
    install relies on in each [PROC] section's region table, failing with
    [Malformed { section = "proc.N"; _ }]: region bases page-aligned above
    the null page, sizes positive page multiples, no region ending past
    {!Mcr_vmem.Aspace.ceiling}, regions ascending and
    disjoint, region kinds known; each region's runs non-empty, whole
    pages, ascending, disjoint and inside the region; every page state a
    page of a saved region; and every pool chunk a word-aligned extent of
    a saved region with its bump cursor inside it. *)

val write : t -> path:string -> (unit, error) result
(** Encode to the {e host} filesystem — images must survive kernel
    teardown, so they live outside any simulated fs. The image goes to a
    temporary file in [path]'s directory that is then renamed over
    [path], so a crash mid-write never leaves a torn image there; on
    failure the temporary file is removed and [path] is untouched. The
    image file keeps the temporary file's mode: readable and writable by
    its owner only, as a core dump is. The image is streamed to the file
    a piece at a time, each run's words straight from where capture or
    decode left them; no whole-image buffer is built.

    There is no fsync: [Ok] means the bytes are in the host's page cache,
    not on disk. What rename-over guarantees is that [path] names either
    the previous image or the complete new one, never a mix; how soon the
    new one is durable after a host crash is the filesystem's choice.
    The temporary file is created and opened in one exclusive open,
    without truncation, so writing it does not trigger ext4's
    replace-via-truncate writeback. *)

val read : path:string -> (t, error) result

val save :
  Mcr_simos.Kernel.t ->
  path:string ->
  members:P.image list ->
  ?policy_text:string ->
  ?target_tag:string ->
  ?flight_json:string ->
  unit ->
  (t, error) result
(** {!capture} followed by {!write}. *)

(** {1 Restore} *)

type install_report = {
  paired_procs : int;  (** Saved processes installed over live ones. *)
  skipped_saved_procs : int;
      (** Saved processes with no live counterpart (e.g. per-connection
          session children of a server saved under load) — their state is
          dropped, like the in-flight connections they served. *)
  unmatched_live_procs : int;
      (** Live processes the image knows nothing about; left untouched. *)
}

val install : t -> members:P.image list -> (install_report, error) result
(** Install the image over an already-running, settled instance of the
    same program and version: reconcile each paired process's region set,
    write back all page contents, re-stamp dirty-tracking state and
    rebuild allocator views. Processes are paired root-to-root and then by
    creation call stack in creation order. Fails with
    {!Program_mismatch} / {!Version_mismatch} before touching anything;
    with [Malformed { section = "proc.N"; _ }] when that process's
    allocator state does not fit its installed memory or the live
    configuration (heap headers that do not tile the heap, a pool chunk
    whose micro heap does not attach, a slab whose slot size differs);
    and with {!Fingerprint_mismatch} if post-install verification fails.
    After either of the last two the target holds part of the image and
    must be discarded. For any image {!decode} returned, install answers
    [Error] rather than raising. *)

val restore :
  t -> launch:(unit -> P.image list) -> (P.image list * install_report, error) result
(** Materialize into a fresh kernel: [launch ()] must start the image's
    program+version there and return its settled members (root first) —
    e.g. [Testbed.launch] wrapped by the caller; then {!install} runs over
    them. Returns the live members now carrying the restored state. *)
