(** The mcr-ctl client side.

    "The mcr-ctl tool allows users to signal live updates to the MCR
    backend using Unix domain sockets" (Section 8). {!exec} spawns a client
    process in the simulated kernel that connects to the manager's control
    socket, sends one typed {!Frame.command} and reports the typed reply.
    An [UPDATE] reply arrives only after the update commits or rolls back,
    so the tool observes the atomic outcome; [STATS] replies immediately
    with the manager's current metrics snapshot.

    {b Protocol.} Every request opens with a [HELLO <version> <command>]
    frame; the server answers with a uniform response frame — ["OK"]
    (optionally followed by a payload) on success, ["ERR <reason>"] on
    refusal, and specifically ["ERR version <server_version>"] when the
    client's version is not supported. A frame without a HELLO is refused
    with ["ERR hello required"]. The wire format is documented in
    doc/OBSERVABILITY.md. *)

module Frame = Frame
(** The command type and frame codec both sides share (re-exported for
    clients that want to speak the protocol directly). *)

val protocol_version : int
(** The protocol version this client speaks (= {!Manager.protocol_version}). *)

type error = Frame.error =
  | Version_mismatch of { client : int; server : int }
      (** The server refused our HELLO; [server] is the version it speaks. *)
  | Refused of string  (** The server answered [ERR <reason>]. *)
  | Transport of string  (** Connection failure or unparseable frame. *)

val pp_error : Format.formatter -> error -> unit

val exec :
  Mcr_simos.Kernel.t ->
  ?version:int ->
  path:string ->
  Frame.command ->
  on_result:((string, error) result -> unit) ->
  unit ->
  unit
(** Send one typed command over the versioned protocol and parse the
    uniform response: [Ok payload] (the payload is [""] for plain "OK"
    acknowledgements), or [Error _] with the typed failure — an [UPDATE]
    that rolled back answers [Error (Refused reason)], whose reason parses
    with {!Mcr_error.of_string}. Drive the kernel afterwards. *)

val request_v :
  Mcr_simos.Kernel.t ->
  ?version:int ->
  path:string ->
  command:string ->
  on_result:((string, error) result -> unit) ->
  unit ->
  unit
(** The versioned transport under {!exec}: send [command] wrapped in a
    HELLO frame ([?version] defaults to {!protocol_version}). An empty
    [command] sends a bare handshake — see {!hello}. *)

val hello :
  Mcr_simos.Kernel.t ->
  ?version:int ->
  path:string ->
  on_result:((string, error) result -> unit) ->
  unit ->
  unit
(** Bare version handshake: [Ok server_version_string] when the server
    accepts our version, [Error (Version_mismatch _)] otherwise. *)

val request :
  Mcr_simos.Kernel.t -> path:string -> command:string -> on_reply:(string -> unit) -> unit
(** Raw transport: send [command] verbatim, with no HELLO framing, and
    pass the raw reply to [on_reply] (or "ERR <err>" if the connection
    failed). Servers refuse such frames with ["ERR hello required"]. *)
