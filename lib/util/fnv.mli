(** FNV-1a hashing, used for version-agnostic call-stack IDs.

    The paper computes a call stack ID "by simply hashing all the active
    function names on the call stack of the thread issuing the system call"
    (Section 5). We use 64-bit FNV-1a folded to OCaml's native int. *)

type t = int
(** A hash value. Non-negative. *)

val string : string -> t
(** [string s] is the FNV-1a hash of [s]. *)

val basis : t
(** The FNV-1a offset basis: the hash of no bytes, from which every
    {!fold} starts. *)

val fold : t -> string -> pos:int -> len:int -> t
(** [fold h s ~pos ~len] folds the bytes [s.[pos] .. s.[pos + len - 1]]
    into the running hash [h], so folding a string in pieces from {!basis}
    gives the hash of the whole: [fold (fold h s ~pos ~len:k) s
    ~pos:(pos + k) ~len:(len - k) = fold h s ~pos ~len]. It folds 8 bytes
    per step, and an all-zero 8-byte word costs one multiplication.
    @raise Invalid_argument if the range is not inside [s]. *)

val fold2 : t -> t -> string -> pos:int -> len:int -> t * t
(** [fold2 h1 h2 s ~pos ~len] is [(fold h1 s ~pos ~len, fold h2 s ~pos ~len)]
    in one pass over the bytes: a section's hash and the hash of the whole
    image it lies in are folded together.
    @raise Invalid_argument if the range is not inside [s]. *)

val sub : string -> pos:int -> len:int -> t
(** [sub s ~pos ~len] is [fold basis s ~pos ~len]: the hash of
    [String.sub s pos len] without the copy.
    @raise Invalid_argument if the range is not inside [s]. *)

val strings : string list -> t
(** [strings names] hashes a list of strings order-sensitively, with a
    separator that cannot occur in function names, so that
    [["ab"; "c"]] and [["a"; "bc"]] hash differently. *)

val combine : t -> t -> t
(** [combine h1 h2] mixes two hash values. *)

val combine_ints : t -> Bytes.t -> int -> int -> t
(** [combine_ints h b i n] is [combine] folded from [h] over [int] of words
    [i .. i + n - 1] of [b] (bits 0-62 of each little-endian u64), and [h]
    when [n <= 0]: one multiplication chain, one multiplication per word.
    @raise Invalid_argument if [n > 0] and the words are not inside [b]. *)

val int : int -> t
(** [int n] is the FNV-1a hash of the 8 little-endian bytes of [n], whose
    last byte holds bits 56-62 (its top bit is 0). *)
