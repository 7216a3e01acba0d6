(** Allocation-site registry.

    The paper's static analysis determines "the allocation type on a
    per-callsite basis" and matches dynamic objects across versions by
    "allocation site information" (Section 6). A site records where an
    allocation happens (function-name stack) and what type it produces;
    sites are matched across versions by their label. *)

type t

type site = {
  id : int;
  label : string;  (** Stable cross-version identity, e.g. ["server_init:conf"]. *)
  ty_id : int;  (** Type produced at this site; 0 when unknown. *)
}

val create : unit -> t

val register : t -> label:string -> ty_id:int -> int
(** Assigns (or returns the existing) site id for [label]. Re-registering
    with a new [ty_id] updates the type (an update changed the allocation's
    type); with the same one it changes and allocates nothing. *)

val find : t -> int -> site
(** @raise Not_found. *)

val count : t -> int
