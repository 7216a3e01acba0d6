(* The server half of the ctl wire protocol, shared by every controller
   that listens on a Unix-domain socket: the per-manager mcr-ctl endpoint
   and the fleet coordinator's FLEET endpoint. One request frame per
   connection, one reply frame back — the handshake, version policing and
   command decoding live here so command families cannot drift apart on
   the wire. *)

module K = Mcr_simos.Kernel
module S = Mcr_simos.Sysdefs

(* A longer request is refused whole: a truncated SAVE path would still
   name a writable file. *)
let max_request = 4096

type pending = { sem : string; mutable waiting : bool; mutable reply : string }

let pending ~sem = { sem; waiting = false; reply = "" }
let waiting p = p.waiting

let await p =
  p.waiting <- true;
  ignore (K.syscall (S.Sem_wait { name = p.sem; timeout_ns = None }));
  p.reply

let respond kernel p frame =
  if p.waiting then begin
    p.reply <- frame;
    K.post_semaphore kernel p.sem;
    (* let the listener deliver the reply *)
    K.run_for kernel 5_000_000;
    p.waiting <- false
  end

(* An unclean exit leaves the previous incarnation's socket name behind
   (AF_UNIX names survive close); binding over a live listener is still
   refused. The check runs here, immediately before listen on the
   listener's own thread — checking only at spawn time leaves a hole where
   the previous listener dies between our spawn and our listen and its
   stale name makes the bind fail with EADDRINUSE. *)
let bind kernel ~path =
  if not (K.path_active kernel ~path) then K.unlink_path kernel ~path;
  K.syscall (S.Unix_listen { path })

let answer ~dispatch raw =
  if String.length raw > max_request then
    Frame.err (Printf.sprintf "request longer than %d bytes" max_request)
  else
    match Frame.parse_request raw with
    | Error reason -> Frame.err reason
    | Ok (v, _) when v <> Frame.protocol_version ->
        Frame.err (Printf.sprintf "version %d" Frame.protocol_version)
    | Ok (_, (None | Some "")) -> Frame.ok_inline (string_of_int Frame.protocol_version)
    | Ok (_, Some cmd) -> (
        match Frame.command_of_string cmd with Ok c -> dispatch c | Error e -> Frame.err e)

let spawn kernel proc ?(name = "mcr-ctl") ~path ~dispatch () =
  ignore
    (K.spawn_thread kernel proc ~name (fun th ->
         K.push_frame th "mcr_ctl_loop";
         match bind kernel ~path with
         | S.Ok_fd lfd ->
             let rec serve () =
               match K.syscall (S.Accept { fd = lfd; nonblock = false }) with
               | S.Ok_fd conn ->
                   let max = max_request + 1 in
                   (match K.syscall (S.Read { fd = conn; max; nonblock = false }) with
                   | S.Ok_data raw ->
                       ignore (K.syscall (S.Write { fd = conn; data = answer ~dispatch raw }))
                   | _ -> ());
                   ignore (K.syscall (S.Close { fd = conn }));
                   serve ()
               | _ -> ()
             in
             serve ()
         | _ -> ()))
