module K = Mcr_simos.Kernel
module S = Mcr_simos.Sysdefs

type t = { kernel : K.t; sem : string; n : int; ready : int ref; exits : Client.exits }

let uid = ref 0

let make kernel n prologue epilogue =
  incr uid;
  let sem = Printf.sprintf "holders.release.%d" !uid in
  let ready = ref 0 in
  let procs =
    List.init n (fun i ->
        Client.spawn kernel
          (Printf.sprintf "holder-%d-%d" !uid i)
          (fun _ ->
            match prologue i with
            | Some fd ->
                incr ready;
                ignore (K.syscall (S.Sem_wait { name = sem; timeout_ns = None }));
                epilogue fd
            | None -> ()))
  in
  { kernel; sem; n; ready; exits = Client.exits procs }

let open_http kernel ~port ~n =
  make kernel n
    (fun _ ->
      match Client.connect port with
      | Some fd ->
          Client.send fd "HOLD";
          Some fd
      | None -> None)
    (fun fd -> Client.close fd)

let open_ftp kernel ~port ~n =
  make kernel n
    (fun i ->
      match Client.connect port with
      | Some fd ->
          let cmd c = Client.send fd c; ignore (Client.recv fd) in
          ignore (Client.recv fd);
          cmd (Printf.sprintf "USER holder%d" i);
          cmd "PASS pw";
          Some fd
      | None -> None)
    (fun fd ->
      Client.send fd "QUIT";
      ignore (Client.recv fd);
      Client.close fd)

let open_ssh kernel ~port ~n =
  make kernel n
    (fun i ->
      match Client.connect port with
      | Some fd ->
          let cmd c = Client.send fd c; ignore (Client.recv fd) in
          ignore (Client.recv fd);
          cmd (Printf.sprintf "AUTH holder%d" i);
          Some fd
      | None -> None)
    (fun fd ->
      Client.send fd "EXIT";
      ignore (Client.recv fd);
      Client.close fd)

let connected t = !(t.ready)

let close_all t =
  for _ = 1 to t.n do
    K.post_semaphore t.kernel t.sem
  done

let all_done t = Client.all_exited t.exits
