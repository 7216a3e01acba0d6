module K = Mcr_simos.Kernel

module S = Mcr_simos.Sysdefs

let run kernel ~port ?(concurrency = 4) ?(think_ns = 0) ~requests ~path () =
  let ok = ref 0 and errors = ref 0 and bytes = ref 0 in
  let start = K.clock_ns kernel in
  let per_client = requests / concurrency in
  let extra = requests - (per_client * concurrency) in
  let clients =
    List.init concurrency (fun i ->
        let n = per_client + if i < extra then 1 else 0 in
        Client.spawn kernel
          (Printf.sprintf "ab-%d" i)
          (fun _ ->
            for _ = 1 to n do
              if think_ns > 0 then ignore (K.syscall (S.Nanosleep { ns = think_ns }));
              match Client.connect port with
              | None -> incr errors
              | Some fd -> (
                  Client.send fd ("GET " ^ path);
                  (match Client.recv fd with
                  | Some reply when String.length reply >= 3 && String.sub reply 0 3 = "200" ->
                      incr ok;
                      bytes := !bytes + String.length reply
                  | Some _ | None -> incr errors);
                  Client.close fd)
            done))
  in
  ignore (Client.drive_until_exited kernel clients);
  {
    Bench_result.requests = !ok;
    errors = !errors;
    bytes = !bytes;
    elapsed_ns = K.clock_ns kernel - start;
  }
