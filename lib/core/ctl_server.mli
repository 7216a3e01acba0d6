(** Generic control-socket listener — the server half of the v1 ctl
    protocol, factored out of {!Manager} so any controller (a single
    manager, the fleet coordinator) can serve a command family over the
    same wire format.

    The listener thread owns the whole connection lifecycle: bind, accept,
    read one request frame, classify it with {!Frame.parse_request}, answer
    the HELLO handshake, version mismatches and undecodable commands itself,
    and hand the decoded {!Frame.command} to [dispatch]. Dispatch runs on the
    listener thread inside the simulated kernel, so it may {!await} a
    {!pending} reply that the host loop later {!respond}s with (the
    manager's UPDATE, the fleet's FLEET ROLLOUT). *)

val max_request : int
(** The longest request frame served, in bytes; a longer one is refused
    whole, never dispatched truncated. *)

type pending
(** One parked reply, posted on the kernel semaphore named at creation. *)

val pending : sem:string -> pending

val waiting : pending -> bool
(** A listener is parked: the host loop's signal to do the work. *)

val await : pending -> string
(** Listener side: park until {!respond}, then return its frame. *)

val respond : Mcr_simos.Kernel.t -> pending -> string -> unit
(** Host side, a no-op unless {!waiting}: post the reply frame, drive
    [kernel] 5 ms so the listener writes it, and clear the slot. *)

val bind :
  Mcr_simos.Kernel.t -> path:string -> Mcr_simos.Sysdefs.result
(** [bind kernel ~path] unlinks a stale socket name (one with no live
    listener behind it) and then issues [Unix_listen]. Must run on the
    thread that will serve the socket, at bind time: a stale name can
    appear at any point before the listen (e.g. the previous incarnation
    crashing after this one was spawned), so checking any earlier is a
    race. Binding over a live listener still fails with [EADDRINUSE]. *)

val spawn :
  Mcr_simos.Kernel.t ->
  Mcr_simos.Kernel.proc ->
  ?name:string ->
  path:string ->
  dispatch:(Frame.command -> string) ->
  unit ->
  unit
(** [spawn kernel proc ~path ~dispatch ()] starts a controller thread
    (named [?name], default ["mcr-ctl"]) in [proc] listening on the
    Unix-domain socket [path], binding via {!bind} (stale names are
    unlinked at bind time, on the listener thread; binding over a live
    listener is still refused). A frame without a HELLO gets
    ["ERR hello required"], one that does not decode gets the decoder's
    reason, and one longer than {!max_request} gets
    ["ERR request longer than <max_request> bytes"]. [dispatch c] returns
    the complete reply frame, built with
    {!Frame.ok}/{!Frame.ok_inline}/{!Frame.ok_payload}/{!Frame.err}. *)
