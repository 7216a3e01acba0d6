(** Minimal JSON reader for the subsystem's own machine-readable outputs
    (flight records, benchmark baselines).

    Deliberately smaller than JSON: every writer in this repository emits
    integers only (determinism forbids float formatting), so numbers parse
    as [int] and fractional/exponent forms are an error. [\uXXXX] escapes
    above ASCII decode to ['?'] — no writer emits them. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Str of string
  | List of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parse one JSON value spanning the whole input (surrounding whitespace
    allowed). The error carries a byte offset and a cause. *)

val fold_member :
  string -> key:string -> init:'a -> ('a -> t -> 'a) -> (t * 'a option, string) result
(** [fold_member s ~key ~init f] is {!parse} that streams one array: when
    the input is an object whose first member named [key] is an array,
    each element goes to [f], in order, as soon as it is parsed, and is not
    kept; that member reads [List []] in the returned value, and the fold's
    result is [Some]. Otherwise the result is [None] and the value is
    {!parse}'s. It accepts and refuses exactly what {!parse} does, with the
    same errors, so a decoder that reads a long array through it holds one
    element's tree at a time instead of the whole list. [f] must not
    raise. *)

(** {1 Accessors} *)

val member : string -> t -> t option
(** Object member by key ([None] for missing keys and non-objects). *)

val to_int : t -> int option
val to_str : t -> string option
val to_list : t -> t list option

val int_field : string -> t -> int option
(** [int_field k j] = [member k j] narrowed to [Int]; likewise below. *)

val str_field : string -> t -> string option
val bool_field : string -> t -> bool option
val list_field : string -> t -> t list option
