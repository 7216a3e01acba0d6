(** The structured event sink of the observability subsystem.

    A trace is a fixed-capacity ring buffer of events keyed by the
    {e virtual} clock: the sink never reads wall-clock time or randomness,
    so two identical runs produce byte-identical traces, and emitting never
    charges virtual time — enabling tracing cannot change any measured
    number. Events are totally ordered by [(ts_ns, seq)]: the virtual
    timestamp first, then the per-sink sequence number for events emitted
    at the same instant.

    Four event shapes mirror the Chrome trace-event model the exporter
    targets ({!Export.chrome_json}): [Begin]/[End] bracket a named span on
    a (pid, tid) track, [Instant] marks a point event, and [Complete]
    carries an explicit duration — used for the per-process-pair state
    transfers, whose cost is charged as a parallel maximum rather than
    serially, so begin/end pairs could not represent them. *)

type phase = Begin | End | Instant | Complete of int  (** duration, ns *)

type event = {
  seq : int;  (** Per-sink sequence number, dense from 0. *)
  ts_ns : int;  (** Virtual time of emission. *)
  pid : int;  (** Simulated process the event belongs to (0 = controller). *)
  tid : int;  (** Simulated thread (0 = controller). *)
  name : string;
  cat : string;  (** Category: "stage", "barrier", "replay", ... *)
  phase : phase;
  args : (string * string) list;
}

type t

val create : ?capacity:int -> clock:(unit -> int) -> unit -> t
(** [create ~clock ()] makes a sink reading timestamps from [clock]
    (normally [fun () -> Kernel.clock_ns k]). Default capacity: 65536
    events; when full, the oldest events are dropped (ring semantics). *)

val capacity : t -> int

val emitted : t -> int
(** Total events ever emitted (not capped by capacity). *)

val length : t -> int
(** Events currently retained. *)

val dropped : t -> int
(** Events lost to ring overflow ([emitted - length] when positive). *)

val clear : t -> unit

val emit :
  t ->
  ?pid:int ->
  ?tid:int ->
  ?cat:string ->
  ?args:(string * string) list ->
  phase ->
  string ->
  unit
(** Low-level emission on a known-enabled sink. *)

(** {1 Instrumentation-point emitters}

    These take the sink as an option: every instrumented layer stores a
    [Trace.t option] (disabled by default) and calls through unconditionally
    — a [None] sink is a single branch. *)

val span_begin :
  t option -> ?pid:int -> ?tid:int -> ?cat:string -> ?args:(string * string) list ->
  string -> unit

val span_end :
  t option -> ?pid:int -> ?tid:int -> ?cat:string -> ?args:(string * string) list ->
  string -> unit

val instant :
  t option -> ?pid:int -> ?tid:int -> ?cat:string -> ?args:(string * string) list ->
  string -> unit

val complete :
  t option -> ?pid:int -> ?tid:int -> ?cat:string -> ?args:(string * string) list ->
  dur_ns:int -> string -> unit

val events : t -> event list
(** Retained events, oldest first. *)

val phase_name : phase -> string
(** Chrome phase letter: "B", "E", "i", "X". *)
