(** Data-type descriptors.

    This is the metadata the paper's LLVM pass attaches to static objects and
    allocations ("relocation and data type tags", Section 6). A descriptor
    tells mutable tracing, for every word of an object, whether it is a
    scalar, a pointer it can trace precisely, or an opaque area it must scan
    conservatively.

    All sizes are in 8-byte machine words; every field starts word-aligned,
    matching the alignment assumption of conservative pointer scanning. *)

type t =
  | Int  (** Narrow scalar (C [int]); never holds a pointer. One word. *)
  | Word
      (** Pointer-sized integer (C [long] / [intptr_t]); opaque under the
          default run-time policy because it may hide a pointer. *)
  | Char_array of int
      (** [n] bytes of raw storage; occupies ceil(n/8) words; opaque. *)
  | Ptr of t  (** Typed pointer — traced precisely. *)
  | Void_ptr  (** [void*] — traced precisely via the target's own tag. *)
  | Func_ptr  (** Code pointer; relocated by symbol, never traversed. *)
  | Encoded_ptr of { target : t; mask : int }
      (** Annotated pointer with metadata in its low [mask] bits (the nginx
          idiom, Section 8: "storing metadata in the 2 least significant
          bits"). Requires the MCR annotation to trace precisely. *)
  | Struct of struct_def
  | Union of (string * t) list  (** Opaque: layout ambiguity. *)
  | Array of t * int
  | Named of string  (** Reference into an {!env}; enables recursion. *)
  | Opaque of int  (** [n] words with no type information at all. *)

and struct_def = { sname : string; fields : (string * t) list }

(** {1 Type environments} *)

type env
(** Named-type registry of one program version. It memoises the layout of
    its named types: {!sizeof_words} and {!field_offset} of a [Named]
    type walk the definition once, and later calls answer from the memo
    until the next {!env_add}, which empties it. A call that raises
    stores nothing, so it raises again when repeated. *)

val env_create : unit -> env

val env_add : env -> string -> t -> unit
(** [env_add env name ty] registers [name]. Re-registering replaces, which
    is how an updated version redefines a struct. Empties the layout
    memo. *)

val env_find : env -> string -> t
(** @raise Not_found for unknown names. *)

val env_names : env -> string list
(** All registered names, sorted. *)

val resolve : env -> t -> t
(** Chase [Named] links until a structural constructor appears.
    @raise Invalid_argument on a [Named] cycle with no structure. *)

(** {1 Layout} *)

val sizeof_words : env -> t -> int
(** Object size in words. Unions size to their largest member.
    @raise Invalid_argument on unbounded recursive layouts. *)

val field_offset : env -> t -> string -> int
(** Word offset of a struct field. @raise Not_found if absent or not a
    struct. *)

val field_ty : env -> t -> string -> t
(** Type of a struct field. @raise Not_found as {!field_offset}. *)

(** {1 Slot classification} *)

(** Run-time policy deciding which areas are opaque (Section 6: "Our default
    is to do so for unions, pointer-sized integers, char arrays, and
    uninstrumented allocator operations"). *)
type policy = {
  unions_opaque : bool;
  char_arrays_opaque : bool;
  words_opaque : bool;  (** pointer-sized integers *)
}

val default_policy : policy

(** What one word-aligned slot of an object holds. *)
type slot =
  | Slot_scalar  (** Data; neither traced nor scanned. *)
  | Slot_ptr of t  (** Precise pointer to a value of the given type. *)
  | Slot_void_ptr
  | Slot_func_ptr
  | Slot_encoded_ptr of { target : t; mask : int }
  | Slot_opaque  (** Conservative scanning required. *)

val slots : ?policy:policy -> env -> t -> slot array
(** [slots env ty] flattens [ty] into per-word slots, expanding arrays and
    nested structs. Length equals [sizeof_words env ty]. *)

(** {1 Comparison} *)

val equal : env -> env -> t -> t -> bool
(** Structural equality across two environments (named types compared by
    their resolved structure, with cycle tolerance). *)

val contains_opaque : ?policy:policy -> env -> t -> bool
(** True when any slot is opaque. Such objects attract conservative
    treatment. *)

val pp : Format.formatter -> t -> unit
(** Compact C-like rendering, for diagnostics and conflict reports. *)

val to_string : t -> string
