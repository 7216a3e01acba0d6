(** Generic control-socket listener — the server half of the v1 ctl
    protocol, factored out of {!Manager} so any controller (a single
    manager, the fleet coordinator) can serve a command family over the
    same wire format.

    The listener thread owns the whole connection lifecycle: bind, accept,
    read one request frame, classify it with {!Frame.parse_request}, answer
    the HELLO handshake and version mismatches itself, and hand everything
    else to [dispatch]. Dispatch runs on the listener thread inside the
    simulated kernel, so it may block (the manager's UPDATE parks on a
    semaphore until the host loop completes the update) — the reply is
    written when it returns. *)

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
  dispatch:(string -> string) ->
  unit ->
  unit
(** [spawn kernel proc ~path ~dispatch ()] starts a controller thread
    (named [?name], default ["mcr-ctl"]) in [proc] listening on the
    Unix-domain socket [path], binding via {!bind} (stale names are
    unlinked at bind time, on the listener thread; binding over a live
    listener is still refused). A frame without a HELLO gets
    ["ERR hello required"]. For each versioned command, [dispatch cmd]
    must return the complete reply frame, built with
    {!Frame.ok}/{!Frame.ok_inline}/{!Frame.ok_payload}/{!Frame.err}. *)
