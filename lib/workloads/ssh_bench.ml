module K = Mcr_simos.Kernel

let run kernel ~port ~sessions ?(commands = 3) () =
  let ok = ref 0 and errors = ref 0 and bytes = ref 0 in
  let start = K.clock_ns kernel in
  let clients =
    List.init sessions (fun i ->
        Client.spawn kernel
          (Printf.sprintf "ssh-%d" i)
          (fun _ ->
            match Client.connect port with
            | None -> incr errors
            | Some fd ->
                let cmd c = Client.send fd c; Client.recv fd in
                let _banner = Client.recv fd in
                (match cmd (Printf.sprintf "AUTH user%d" i) with
                | Some r when Client.contains r "auth-ok" ->
                    for j = 1 to commands do
                      match cmd (Printf.sprintf "RUN cmd%d" j) with
                      | Some reply when Client.contains reply "out:" ->
                          incr ok;
                          bytes := !bytes + String.length reply
                      | Some _ | None -> incr errors
                    done
                | Some _ | None -> incr errors);
                let _ = cmd "EXIT" in
                Client.close fd))
  in
  ignore (Client.drive_until_exited kernel clients);
  {
    Bench_result.requests = !ok;
    errors = !errors;
    bytes = !bytes;
    elapsed_ns = K.clock_ns kernel - start;
  }
