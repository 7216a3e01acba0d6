(** Startup-log recording (the record phase of mutable reinitialization).

    "During program startup, MCR records all the operations (i.e., system
    calls) performed by the program in a startup log" (Section 3).
    Recording attaches to the root process at launch, follows forked
    children (one fork subscriber on the root's {!Mcr_program.Progdef.tree}),
    enables reserved-range fd allocation for global separability, and stops
    per process when that process reaches its first quiescent point.

    Per process, dead or alive, it keeps the log (for the next update) and
    the fork ordinal counters (pairing keys); an exited process's log is
    never dropped. *)

type t

val start : Mcr_simos.Kernel.t -> Mcr_program.Progdef.image -> t
(** Attach to a freshly launched (not yet run) root image. *)

val logs : t -> Logdefs.plog list
(** Per-process startup logs, root first, children in creation order.
    Entries are in issue order. *)

val entry_count : t -> int
(** Total recorded entries across processes (memory-accounting input). *)
