module K = Mcr_simos.Kernel
module S = Mcr_simos.Sysdefs

module Frame = Frame

let protocol_version = Frame.protocol_version

type error = Frame.error =
  | Version_mismatch of { client : int; server : int }
  | Refused of string
  | Transport of string

let pp_error = Frame.pp_error

let request kernel ~path ~command ~on_reply =
  ignore
    (K.spawn_process kernel ~image:(K.Fresh_image (Mcr_vmem.Aspace.create ())) ~name:"mcr-ctl"
       ~entry:"main"
       ~main:(fun _th ->
         let rec connect attempts =
           match K.syscall (S.Unix_connect { path }) with
           | S.Ok_fd fd -> Some fd
           | S.Err S.ECONNREFUSED when attempts > 0 ->
               ignore (K.syscall (S.Nanosleep { ns = 1_000_000 }));
               connect (attempts - 1)
           | _ -> None
         in
         match connect 100 with
         | None -> on_reply "ERR ECONNREFUSED"
         | Some fd -> (
             ignore (K.syscall (S.Write { fd; data = command }));
             match K.syscall (S.Read { fd = fd; max = 65536; nonblock = false }) with
             | S.Ok_data reply -> on_reply reply
             | S.Err e -> on_reply (Format.asprintf "ERR %a" S.pp_err e)
             | _ -> on_reply "ERR"))
       ())

let request_v kernel ?(version = protocol_version) ~path ~command ~on_result () =
  request kernel ~path
    ~command:(Frame.hello_frame ~version ~command)
    ~on_reply:(fun reply ->
      if reply = "ERR ECONNREFUSED" then on_result (Error (Transport "ECONNREFUSED"))
      else on_result (Frame.parse_reply ~version reply))

let hello kernel ?version ~path ~on_result () =
  request_v kernel ?version ~path ~command:"" ~on_result ()

let exec kernel ?version ~path command ~on_result () =
  request_v kernel ?version ~path ~command:(Frame.command_to_string command) ~on_result ()

let update_pending m = Manager.update_requested m
