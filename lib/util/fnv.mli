(** FNV-1a hashing, used for version-agnostic call-stack IDs.

    The paper computes a call stack ID "by simply hashing all the active
    function names on the call stack of the thread issuing the system call"
    (Section 5). We use 64-bit FNV-1a folded to OCaml's native int. *)

type t = int
(** A hash value. Non-negative. *)

val string : string -> t
(** [string s] is the FNV-1a hash of [s]. *)

val sub : string -> pos:int -> len:int -> t
(** [sub s ~pos ~len] is [string (String.sub s pos len)] without the copy.
    It folds 8 bytes per step, and an all-zero 8-byte word costs one
    multiplication.
    @raise Invalid_argument if the range is not inside [s]. *)

val strings : string list -> t
(** [strings names] hashes a list of strings order-sensitively, with a
    separator that cannot occur in function names, so that
    [["ab"; "c"]] and [["a"; "bc"]] hash differently. *)

val combine : t -> t -> t
(** [combine h1 h2] mixes two hash values. *)

val int : int -> t
(** [int n] is the FNV-1a hash of the 8 little-endian bytes of [n], whose
    last byte holds bits 56-62 (its top bit is 0). *)
