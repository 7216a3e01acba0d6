module K = Mcr_simos.Kernel

let run kernel ~port ~users ?(retrievals = 1) ~file () =
  let ok = ref 0 and errors = ref 0 and bytes = ref 0 in
  let start = K.clock_ns kernel in
  let clients =
    List.init users (fun i ->
        Client.spawn kernel
          (Printf.sprintf "ftp-user-%d" i)
          (fun _ ->
            match Client.connect port with
            | None -> incr errors
            | Some fd ->
                let cmd c = Client.send fd c; Client.recv fd in
                let _banner = Client.recv fd in
                let _ = cmd (Printf.sprintf "USER user%d" i) in
                let _ = cmd "PASS secret" in
                for _ = 1 to retrievals do
                  (* drain the chunked transfer until the 226 completion *)
                  Client.send fd ("RETR " ^ file);
                  let ok150, got = Client.drain_retr (fun () -> Client.recv fd) in
                  if ok150 then begin
                    incr ok;
                    bytes := !bytes + got
                  end
                  else incr errors
                done;
                let _ = cmd "QUIT" in
                Client.close fd))
  in
  ignore (Client.drive_until_exited kernel clients);
  {
    Bench_result.requests = !ok;
    errors = !errors;
    bytes = !bytes;
    elapsed_ns = K.clock_ns kernel - start;
  }
