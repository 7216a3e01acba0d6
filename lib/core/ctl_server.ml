(* The server half of the ctl wire protocol, shared by every controller
   that listens on a Unix-domain socket: the per-manager mcr-ctl endpoint
   and the fleet coordinator's FLEET endpoint. One request frame per
   connection, one reply frame back — the handshake and version policing
   live here so command families cannot drift apart on the wire. *)

module K = Mcr_simos.Kernel
module S = Mcr_simos.Sysdefs

(* An unclean exit leaves the previous incarnation's socket name behind
   (AF_UNIX names survive close); binding over a live listener is still
   refused. The check runs here, immediately before listen on the
   listener's own thread — checking only at spawn time leaves a hole where
   the previous listener dies between our spawn and our listen and its
   stale name makes the bind fail with EADDRINUSE. *)
let bind kernel ~path =
  if not (K.path_active kernel ~path) then K.unlink_path kernel ~path;
  K.syscall (S.Unix_listen { path })

let spawn kernel proc ?(name = "mcr-ctl") ~path ~dispatch () =
  ignore
    (K.spawn_thread kernel proc ~name (fun th ->
         K.push_frame th "mcr_ctl_loop";
         match bind kernel ~path with
         | S.Ok_fd lfd ->
             let rec serve () =
               match K.syscall (S.Accept { fd = lfd; nonblock = false }) with
               | S.Ok_fd conn ->
                   let reply data = ignore (K.syscall (S.Write { fd = conn; data })) in
                   (match K.syscall (S.Read { fd = conn; max = 256; nonblock = false }) with
                   | S.Ok_data raw -> begin
                       match Frame.parse_request raw with
                       | Error reason -> reply (Frame.err reason)
                       | Ok (v, _) when v <> Frame.protocol_version ->
                           reply
                             (Frame.err (Printf.sprintf "version %d" Frame.protocol_version))
                       | Ok (_, (None | Some "")) ->
                           reply (Frame.ok_inline (string_of_int Frame.protocol_version))
                       | Ok (_, Some cmd) -> reply (dispatch cmd)
                     end
                   | _ -> ());
                   ignore (K.syscall (S.Close { fd = conn }));
                   serve ()
               | _ -> ()
             in
             serve ()
         | _ -> ()))
