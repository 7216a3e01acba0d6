(* Tests for Mcr_simos: scheduling, sockets, files, fork, semaphores,
   connection parking, descriptor inheritance, interception hooks, virtual
   time. *)

open Mcr_simos
module S = Sysdefs
module K = Kernel
module Aspace = Mcr_vmem.Aspace

let fresh () = K.create ()

let spawn ?parent ?force_pid k name main =
  K.spawn_process k ?parent ?force_pid ~image:(K.Fresh_image (Aspace.create ())) ~name
    ~entry:"main" ~main ()

let expect_fd = function
  | S.Ok_fd fd -> fd
  | r -> Alcotest.failf "expected fd, got %a" S.pp_result r

let expect_data = function
  | S.Ok_data d -> d
  | r -> Alcotest.failf "expected data, got %a" S.pp_result r

let expect_pid = function
  | S.Ok_pid p -> p
  | r -> Alcotest.failf "expected pid, got %a" S.pp_result r

(* Clients may be scheduled before the server binds; retry like a real
   client would. *)
let connect_retry ?(attempts = 200) port =
  let rec go n =
    match K.syscall (S.Connect { port }) with
    | S.Ok_fd fd -> fd
    | S.Err S.ECONNREFUSED when n > 0 ->
        ignore (K.syscall (S.Nanosleep { ns = 1_000 }));
        go (n - 1)
    | r -> Alcotest.failf "connect: %a" S.pp_result r
  in
  go attempts

(* ------------------------------------------------------------------ *)
(* Basic lifecycle *)

let test_process_runs_and_exits () =
  let k = fresh () in
  let ran = ref false in
  let p = spawn k "prog" (fun _ -> ran := true) in
  K.run k;
  Alcotest.(check bool) "body ran" true !ran;
  Alcotest.(check bool) "process exited" false (K.alive p);
  Alcotest.(check (option int)) "status 0" (Some 0) (K.exit_status p)

let test_exit_syscall () =
  let k = fresh () in
  let after = ref false in
  let p =
    spawn k "prog" (fun _ ->
        ignore (K.syscall (S.Exit { status = 7 }));
        after := true)
  in
  K.run k;
  Alcotest.(check bool) "code after exit does not run" false !after;
  Alcotest.(check (option int)) "status" (Some 7) (K.exit_status p)

let test_crash_reports_139 () =
  let k = fresh () in
  let p = spawn k "prog" (fun _ -> failwith "segfault") in
  K.run k;
  Alcotest.(check (option int)) "crash status" (Some 139) (K.exit_status p)

let test_clock_advances () =
  let k = fresh () in
  let _ = spawn k "prog" (fun _ -> ignore (K.syscall S.Getpid)) in
  K.run k;
  Alcotest.(check bool) "clock moved" true (K.clock_ns k > 0)

let test_nanosleep_advances_clock () =
  let k = fresh () in
  let _ = spawn k "prog" (fun _ -> ignore (K.syscall (S.Nanosleep { ns = 5_000_000 }))) in
  K.run k;
  Alcotest.(check bool) "clock past sleep" true (K.clock_ns k >= 5_000_000)

let test_getpid_getppid () =
  let k = fresh () in
  let seen = ref (0, 0) in
  let p =
    spawn k "prog" (fun _ ->
        let pid = expect_pid (K.syscall S.Getpid) in
        let ppid = expect_pid (K.syscall S.Getppid) in
        seen := (pid, ppid))
  in
  K.run k;
  Alcotest.(check int) "pid" (K.pid p) (fst !seen);
  Alcotest.(check int) "ppid 0 for root" 0 (snd !seen)

let test_force_pid () =
  let k = fresh () in
  let p = spawn ~force_pid:42 k "prog" (fun _ -> ()) in
  Alcotest.(check int) "forced pid" 42 (K.pid p);
  Alcotest.check_raises "pid collision rejected"
    (Invalid_argument "spawn_process: pid 42 already in use") (fun () ->
      ignore (spawn ~force_pid:42 k "prog2" (fun _ -> ())))

(* ------------------------------------------------------------------ *)
(* Sockets *)

let setup_server_client k ~server_body ~client_body =
  let server =
    spawn k "server" (fun th ->
        let fd = expect_fd (K.syscall S.Socket) in
        (match K.syscall (S.Bind { fd; port = 80 }) with
        | S.Ok_unit -> ()
        | r -> Alcotest.failf "bind: %a" S.pp_result r);
        (match K.syscall (S.Listen { fd; backlog = 8 }) with
        | S.Ok_unit -> ()
        | r -> Alcotest.failf "listen: %a" S.pp_result r);
        server_body th fd)
  in
  let client = spawn k "client" client_body in
  (server, client)

let test_accept_connect_read_write () =
  let k = fresh () in
  let got = ref "" in
  let _ =
    setup_server_client k
      ~server_body:(fun _ fd ->
        let conn = expect_fd (K.syscall (S.Accept { fd; nonblock = false })) in
        got := expect_data (K.syscall (S.Read { fd = conn; max = 100; nonblock = false }));
        ignore (K.syscall (S.Write { fd = conn; data = "pong" })))
      ~client_body:(fun _ ->
        let fd = connect_retry 80 in
        ignore (K.syscall (S.Write { fd; data = "ping" }));
        let reply = expect_data (K.syscall (S.Read { fd; max = 100; nonblock = false })) in
        Alcotest.(check string) "client got pong" "pong" reply)
  in
  K.run k;
  Alcotest.(check string) "server got ping" "ping" !got

let test_connect_refused_no_listener () =
  let k = fresh () in
  let result = ref S.Ok_unit in
  let _ = spawn k "client" (fun _ -> result := K.syscall (S.Connect { port = 9999 })) in
  K.run k;
  Alcotest.(check bool) "refused" true (!result = S.Err S.ECONNREFUSED)

let test_bind_conflict () =
  let k = fresh () in
  let second = ref S.Ok_unit in
  let _ =
    spawn k "a" (fun _ ->
        let fd = expect_fd (K.syscall S.Socket) in
        ignore (K.syscall (S.Bind { fd; port = 80 }));
        let fd2 = expect_fd (K.syscall S.Socket) in
        second := K.syscall (S.Bind { fd = fd2; port = 80 }))
  in
  K.run k;
  Alcotest.(check bool) "EADDRINUSE" true (!second = S.Err S.EADDRINUSE)

let test_read_eof_on_close () =
  let k = fresh () in
  let eof = ref "x" in
  let _ =
    setup_server_client k
      ~server_body:(fun _ fd ->
        let conn = expect_fd (K.syscall (S.Accept { fd; nonblock = false })) in
        (* read data then EOF *)
        let _ = K.syscall (S.Read { fd = conn; max = 100; nonblock = false }) in
        eof := expect_data (K.syscall (S.Read { fd = conn; max = 100; nonblock = false })))
      ~client_body:(fun _ ->
        let fd = connect_retry 80 in
        ignore (K.syscall (S.Write { fd; data = "bye" }));
        ignore (K.syscall (S.Close { fd })))
  in
  K.run k;
  Alcotest.(check string) "EOF is empty read" "" !eof

let test_write_to_closed_peer_epipe () =
  let k = fresh () in
  let res = ref S.Ok_unit in
  let _ =
    setup_server_client k
      ~server_body:(fun _ fd ->
        let conn = expect_fd (K.syscall (S.Accept { fd; nonblock = false })) in
        (* wait for client close (EOF), then write *)
        let _ = K.syscall (S.Read { fd = conn; max = 10; nonblock = false }) in
        res := K.syscall (S.Write { fd = conn; data = "late" }))
      ~client_body:(fun _ ->
        let fd = connect_retry 80 in
        ignore (K.syscall (S.Close { fd })))
  in
  K.run k;
  Alcotest.(check bool) "EPIPE" true (!res = S.Err S.EPIPE)

let test_nonblocking_accept_eagain () =
  let k = fresh () in
  let res = ref S.Ok_unit in
  let _ =
    spawn k "server" (fun _ ->
        let fd = expect_fd (K.syscall S.Socket) in
        ignore (K.syscall (S.Bind { fd; port = 80 }));
        ignore (K.syscall (S.Listen { fd; backlog = 8 }));
        res := K.syscall (S.Accept { fd; nonblock = true }))
  in
  K.run k;
  Alcotest.(check bool) "EAGAIN" true (!res = S.Err S.EAGAIN)

let test_partial_read_preserves_order () =
  let k = fresh () in
  let parts = ref [] in
  let _ =
    setup_server_client k
      ~server_body:(fun _ fd ->
        let conn = expect_fd (K.syscall (S.Accept { fd; nonblock = false })) in
        for _ = 1 to 3 do
          parts := expect_data (K.syscall (S.Read { fd = conn; max = 4; nonblock = false })) :: !parts
        done)
      ~client_body:(fun _ ->
        let fd = connect_retry 80 in
        ignore (K.syscall (S.Write { fd; data = "abcdefgh" }));
        ignore (K.syscall (S.Write { fd; data = "ijkl" })))
  in
  K.run k;
  Alcotest.(check (list string)) "chunks in order" [ "abcd"; "efgh"; "ijkl" ] (List.rev !parts)

let test_backlog_refuses_when_full () =
  let k = fresh () in
  let refused = ref 0 in
  let _ =
    spawn k "server" (fun _ ->
        let fd = expect_fd (K.syscall S.Socket) in
        ignore (K.syscall (S.Bind { fd; port = 80 }));
        ignore (K.syscall (S.Listen { fd; backlog = 2 }));
        (* never accept *)
        ignore (K.syscall (S.Nanosleep { ns = 1_000_000_000 })))
  in
  let _ =
    spawn k "clients" (fun _ ->
        ignore (K.syscall (S.Nanosleep { ns = 10_000 }));
        for _ = 1 to 4 do
          match K.syscall (S.Connect { port = 80 }) with
          | S.Err S.ECONNREFUSED -> incr refused
          | _ -> ()
        done)
  in
  K.run k;
  Alcotest.(check int) "two refused" 2 !refused

let listen_tcp port ~backlog =
  let fd = expect_fd (K.syscall S.Socket) in
  ignore (K.syscall (S.Bind { fd; port }));
  ignore (K.syscall (S.Listen { fd; backlog }));
  fd

let test_accept_timed () =
  let k = fresh () in
  let timed_out = ref S.Ok_unit and waited = ref 0 in
  let accepted = ref S.Ok_unit and accepted_at = ref 0 in
  let _ =
    spawn k "server" (fun _ ->
        let fd = listen_tcp 80 ~backlog:4 in
        let t0 = K.clock_ns k in
        timed_out := K.syscall (S.Accept_timed { fd; timeout_ns = 1_000_000 });
        waited := K.clock_ns k - t0;
        accepted := K.syscall (S.Accept_timed { fd; timeout_ns = 50_000_000 });
        accepted_at := K.clock_ns k)
  in
  let _ =
    spawn k "client" (fun _ ->
        ignore (K.syscall (S.Nanosleep { ns = 5_000_000 }));
        ignore (connect_retry 80))
  in
  K.run k;
  Alcotest.(check bool) "no connection: ETIMEDOUT" true (!timed_out = S.Err S.ETIMEDOUT);
  Alcotest.(check bool) "timed out after the timeout" true (!waited >= 1_000_000);
  Alcotest.(check bool) "connection within the timeout accepted" true
    (match !accepted with S.Ok_fd _ -> true | _ -> false);
  Alcotest.(check bool) "accepted when the connection arrived" true
    (!accepted_at >= 5_000_000 && !accepted_at < 50_000_000)

(* TCP refuses past the listen backlog; a Unix-domain listener has no cap. *)
let test_backlog_tcp_capped_unix_not () =
  let k = fresh () in
  let tcp = ref [] and unix_ok = ref 0 in
  let _ =
    spawn k "server" (fun _ ->
        ignore (listen_tcp 80 ~backlog:2);
        ignore (K.syscall (S.Unix_listen { path = "/run/u" }));
        (* never accept *)
        ignore (K.syscall (S.Nanosleep { ns = 1_000_000_000 })))
  in
  let _ =
    spawn k "clients" (fun _ ->
        ignore (K.syscall (S.Nanosleep { ns = 10_000 }));
        for _ = 1 to 3 do
          tcp := K.syscall (S.Connect { port = 80 }) :: !tcp
        done;
        for _ = 1 to 70 do
          match K.syscall (S.Unix_connect { path = "/run/u" }) with
          | S.Ok_fd _ -> incr unix_ok
          | r -> Alcotest.failf "unix_connect: %a" S.pp_result r
        done)
  in
  K.run k;
  (match List.rev !tcp with
  | [ S.Ok_fd _; S.Ok_fd _; S.Err S.ECONNREFUSED ] -> ()
  | rs ->
      Alcotest.failf "tcp connects: %s"
        (String.concat ", " (List.map (Format.asprintf "%a" S.pp_result) rs)));
  Alcotest.(check int) "every unix connect queued" 70 !unix_ok


let test_poll_returns_ready_fd () =
  let k = fresh () in
  let ready = ref [] in
  let _ =
    setup_server_client k
      ~server_body:(fun _ fd ->
        match K.syscall (S.Poll { fds = [ fd ]; timeout_ns = None; nonblock = false }) with
        | S.Ok_ready fds -> ready := fds
        | r -> Alcotest.failf "poll: %a" S.pp_result r)
      ~client_body:(fun _ -> ignore (connect_retry 80))
  in
  K.run k;
  Alcotest.(check int) "listener became readable" 1 (List.length !ready)

let test_poll_timeout_empty () =
  let k = fresh () in
  let ready = ref [ 1 ] in
  let _ =
    spawn k "p" (fun _ ->
        let fd = expect_fd (K.syscall S.Socket) in
        ignore (K.syscall (S.Bind { fd; port = 80 }));
        ignore (K.syscall (S.Listen { fd; backlog = 2 }));
        match K.syscall (S.Poll { fds = [ fd ]; timeout_ns = Some 1_000_000; nonblock = false }) with
        | S.Ok_ready fds -> ready := fds
        | _ -> ())
  in
  K.run k;
  Alcotest.(check (list int)) "timed out empty" [] !ready;
  Alcotest.(check bool) "clock advanced past timeout" true (K.clock_ns k >= 1_000_000)

let test_poll_multiple_fds () =
  let k = fresh () in
  let ready_count = ref 0 in
  let _ =
    spawn k "server" (fun _ ->
        let mk port =
          let fd = expect_fd (K.syscall S.Socket) in
          ignore (K.syscall (S.Bind { fd; port }));
          ignore (K.syscall (S.Listen { fd; backlog = 4 }));
          fd
        in
        let fd1 = mk 80 and fd2 = mk 81 in
        match K.syscall (S.Poll { fds = [ fd1; fd2 ]; timeout_ns = None; nonblock = false }) with
        | S.Ok_ready fds -> ready_count := List.length fds
        | _ -> ())
  in
  let _ =
    spawn k "client" (fun _ ->
        ignore (connect_retry 81))
  in
  K.run k;
  Alcotest.(check int) "one of two ready" 1 !ready_count

(* ------------------------------------------------------------------ *)
(* Files *)

let test_file_read_write () =
  let k = fresh () in
  K.fs_write k ~path:"/etc/server.conf" "workers=2";
  let contents = ref "" in
  let _ =
    spawn k "p" (fun _ ->
        let fd = expect_fd (K.syscall (S.Open { path = "/etc/server.conf"; create = false })) in
        contents := expect_data (K.syscall (S.Read { fd; max = 100; nonblock = false }));
        ignore (K.syscall (S.Close { fd })))
  in
  K.run k;
  Alcotest.(check string) "config read" "workers=2" !contents

let test_open_missing_enoent () =
  let k = fresh () in
  let res = ref S.Ok_unit in
  let _ = spawn k "p" (fun _ -> res := K.syscall (S.Open { path = "/nope"; create = false })) in
  K.run k;
  Alcotest.(check bool) "ENOENT" true (!res = S.Err S.ENOENT)

let test_open_create_and_append () =
  let k = fresh () in
  let _ =
    spawn k "p" (fun _ ->
        let fd = expect_fd (K.syscall (S.Open { path = "/log"; create = true })) in
        ignore (K.syscall (S.Write { fd; data = "a" }));
        ignore (K.syscall (S.Write { fd; data = "b" })))
  in
  K.run k;
  Alcotest.(check (option string)) "appended" (Some "ab") (K.fs_read k ~path:"/log")

(* ------------------------------------------------------------------ *)
(* Fork / threads / waitpid *)

let test_fork_runs_entry () =
  let k = fresh () in
  let child_ran = ref false in
  let _ =
    spawn k "p" (fun th ->
        K.set_entry_resolver (K.thread_proc th)
          (fun entry -> if entry = "worker" then Some (fun _ -> child_ran := true) else None);
        let pid = expect_pid (K.syscall (S.Fork { entry = "worker" })) in
        match K.syscall (S.Waitpid { pid }) with
        | S.Ok_status 0 -> ()
        | r -> Alcotest.failf "waitpid: %a" S.pp_result r)
  in
  K.run k;
  Alcotest.(check bool) "child ran" true !child_ran

let test_fork_inherits_fds_and_memory () =
  let k = fresh () in
  let child_saw = ref 0 in
  let child_read = ref "" in
  let _ =
    spawn k "p" (fun th ->
        let proc = K.thread_proc th in
        let sp = K.aspace proc in
        let base =
          Aspace.map sp (Aspace.Near Mcr_vmem.Region.Heap) ~size:4096 Mcr_vmem.Region.Heap
        in
        Aspace.write_word sp base 777;
        let fd = expect_fd (K.syscall S.Socket) in
        ignore (K.syscall (S.Bind { fd; port = 80 }));
        ignore (K.syscall (S.Listen { fd; backlog = 4 }));
        K.set_entry_resolver proc (fun entry ->
            if entry = "worker" then
              Some
                (fun wth ->
                  let wproc = K.thread_proc wth in
                  child_saw := Aspace.read_word (K.aspace wproc) base;
                  (* accept on the inherited listening fd *)
                  let conn = expect_fd (K.syscall (S.Accept { fd; nonblock = false })) in
                  child_read :=
                    expect_data (K.syscall (S.Read { fd = conn; max = 10; nonblock = false })))
            else None);
        let _ = expect_pid (K.syscall (S.Fork { entry = "worker" })) in
        ())
  in
  let _ =
    spawn k "client" (fun _ ->
        let fd = connect_retry 80 in
        ignore (K.syscall (S.Write { fd; data = "hi" })))
  in
  K.run k;
  Alcotest.(check int) "child sees parent memory copy" 777 !child_saw;
  Alcotest.(check string) "child accepts on inherited fd" "hi" !child_read

let test_fork_memory_is_copy () =
  let k = fresh () in
  let parent_after = ref 0 in
  let _ =
    spawn k "p" (fun th ->
        let proc = K.thread_proc th in
        let sp = K.aspace proc in
        let base =
          Aspace.map sp (Aspace.Near Mcr_vmem.Region.Heap) ~size:4096 Mcr_vmem.Region.Heap
        in
        Aspace.write_word sp base 1;
        K.set_entry_resolver proc (fun _ ->
            Some
              (fun wth ->
                Aspace.write_word (K.aspace (K.thread_proc wth)) base 999));
        let pid = expect_pid (K.syscall (S.Fork { entry = "w" })) in
        ignore (K.syscall (S.Waitpid { pid }));
        parent_after := Aspace.read_word sp base)
  in
  K.run k;
  Alcotest.(check int) "child write invisible to parent" 1 !parent_after

let test_thread_create_and_shared_memory () =
  let k = fresh () in
  let seen = ref 0 in
  let _ =
    spawn k "p" (fun th ->
        let proc = K.thread_proc th in
        let sp = K.aspace proc in
        let base =
          Aspace.map sp (Aspace.Near Mcr_vmem.Region.Heap) ~size:4096 Mcr_vmem.Region.Heap
        in
        K.set_entry_resolver proc (fun entry ->
            if entry = "t2" then
              Some (fun _ -> Aspace.write_word sp base 5)
            else None);
        ignore (K.syscall (S.Thread_create { entry = "t2" }));
        (* give the thread a chance to run *)
        ignore (K.syscall (S.Nanosleep { ns = 1000 }));
        seen := Aspace.read_word sp base)
  in
  K.run k;
  Alcotest.(check int) "threads share the address space" 5 !seen

let test_waitpid_blocks_until_exit () =
  let k = fresh () in
  let status = ref (-1) in
  let _ =
    spawn k "p" (fun th ->
        K.set_entry_resolver (K.thread_proc th) (fun _ ->
            Some
              (fun _ ->
                ignore (K.syscall (S.Nanosleep { ns = 1_000_000 }));
                ignore (K.syscall (S.Exit { status = 3 }))));
        let pid = expect_pid (K.syscall (S.Fork { entry = "w" })) in
        match K.syscall (S.Waitpid { pid }) with
        | S.Ok_status s -> status := s
        | _ -> ())
  in
  K.run k;
  Alcotest.(check int) "waited status" 3 !status

let test_fork_child_identity () =
  let k = fresh () in
  let fork_cs = ref 0 and child_pid = ref 0 and parent_fds = ref [] and child_fds = ref [] in
  let after_child_close = ref S.Ok_unit and after_last_close = ref S.Ok_unit in
  let rebind = ref S.Ok_unit in
  let parent =
    spawn k "p" (fun th ->
        let proc = K.thread_proc th in
        let fd = listen_tcp 80 ~backlog:4 in
        K.set_entry_resolver proc (fun entry ->
            if entry = "w" then
              Some
                (fun wth ->
                  child_fds := K.fds (K.thread_proc wth);
                  ignore (K.syscall (S.Close { fd })))
            else None);
        K.push_frame th "main";
        K.push_frame th "spawn_workers";
        fork_cs := K.callstack_id th;
        child_pid := expect_pid (K.syscall (S.Fork { entry = "w" }));
        parent_fds := K.fds proc;
        ignore (K.syscall (S.Waitpid { pid = !child_pid }));
        (* the child's close and exit dropped only its own references *)
        after_child_close := K.syscall (S.Connect { port = 80 });
        ignore (K.syscall (S.Close { fd }));
        after_last_close := K.syscall (S.Connect { port = 80 });
        let fd2 = expect_fd (K.syscall S.Socket) in
        rebind := K.syscall (S.Bind { fd = fd2; port = 80 }))
  in
  K.run k;
  match K.find_proc k !child_pid with
  | None -> Alcotest.fail "child not found"
  | Some child ->
      Alcotest.(check string) "name parent:entry" "p:w" (K.proc_name child);
      Alcotest.(check int) "ppid is the parent's pid" (K.pid parent) (K.parent_pid child);
      Alcotest.(check int) "creation callstack is the forking thread's" !fork_cs
        (K.creation_callstack child);
      Alcotest.(check (list string)) "initial thread named after the entry" [ "w" ]
        (List.map K.thread_name (K.proc_threads child));
      Alcotest.(check (list int)) "child starts with the parent's fds" !parent_fds !child_fds;
      Alcotest.(check bool) "listener survives the child's close" true
        (match !after_child_close with S.Ok_fd _ -> true | _ -> false);
      Alcotest.(check bool) "last close releases the listener" true
        (!after_last_close = S.Err S.ECONNREFUSED);
      Alcotest.(check bool) "port free again" true (!rebind = S.Ok_unit)

let test_waitpid_unknown_echild () =
  let k = fresh () in
  let res = ref S.Ok_unit in
  let _ = spawn k "p" (fun _ -> res := K.syscall (S.Waitpid { pid = 4242 })) in
  K.run k;
  Alcotest.(check bool) "ECHILD" true (!res = S.Err S.ECHILD)

(* ------------------------------------------------------------------ *)
(* Semaphores *)

let test_sem_wait_post () =
  let k = fresh () in
  let order = ref [] in
  let _ =
    spawn k "waiter" (fun _ ->
        ignore (K.syscall (S.Sem_wait { name = "s"; timeout_ns = None }));
        order := "waiter" :: !order)
  in
  let _ =
    spawn k "poster" (fun _ ->
        ignore (K.syscall (S.Nanosleep { ns = 1000 }));
        order := "poster" :: !order;
        K.post_semaphore k "s")
  in
  K.run k;
  Alcotest.(check (list string)) "post before wake" [ "waiter"; "poster" ] !order

let test_sem_timeout () =
  let k = fresh () in
  let res = ref S.Ok_unit in
  let _ =
    spawn k "p" (fun _ -> res := K.syscall (S.Sem_wait { name = "never"; timeout_ns = Some 500 }))
  in
  K.run k;
  Alcotest.(check bool) "ETIMEDOUT" true (!res = S.Err S.ETIMEDOUT)

let test_sem_counts () =
  let k = fresh () in
  let served = ref 0 in
  let _ =
    spawn k "poster" (fun _ ->
        K.post_semaphore k "c";
        K.post_semaphore k "c")
  in
  for i = 1 to 3 do
    ignore
      (spawn k (Printf.sprintf "w%d" i) (fun _ ->
           match K.syscall (S.Sem_wait { name = "c"; timeout_ns = Some 10_000 }) with
           | S.Ok_unit -> incr served
           | _ -> ()))
  done;
  K.run k;
  Alcotest.(check int) "two of three served" 2 !served

(* The controller's K.post_semaphore, from outside any simulated thread,
   completes a parked Sem_wait like any other wakeup: the monitors see it,
   and a post made before the wait is counted. *)
let test_controller_post () =
  let k = fresh () in
  let results = ref [] and completions = ref [] and blocked = ref [] in
  K.set_block_monitor k
    (Some
       (fun _ call ~blocked_ns ->
         if S.call_name call = "sem_wait" then blocked := blocked_ns :: !blocked));
  let waiter =
    spawn k "waiter" (fun _ ->
        let r1 = K.syscall (S.Sem_wait { name = "s"; timeout_ns = None }) in
        let r2 = K.syscall (S.Sem_wait { name = "s"; timeout_ns = Some 1000 }) in
        results := [ r1; r2 ])
  in
  K.set_monitor waiter
    (Some (fun _ call r -> completions := (S.call_name call, r) :: !completions));
  (* the waiter parks; the controller posts 1 ms later *)
  K.run k;
  K.charge k 1_000_000;
  K.post_semaphore k "s";
  K.post_semaphore k "pre";
  let early = ref S.Ok_unit in
  ignore
    (spawn k "poster" (fun _ ->
         early := K.syscall (S.Sem_wait { name = "pre"; timeout_ns = Some 1000 })));
  K.run k;
  let pp_rs rs = String.concat ", " (List.map (Format.asprintf "%a" S.pp_result) rs) in
  Alcotest.(check string) "waiter results" "ok, ETIMEDOUT" (pp_rs !results);
  Alcotest.(check (list string)) "monitor saw both waits" [ "sem_wait"; "sem_wait" ]
    (List.rev_map fst !completions);
  Alcotest.(check string) "monitor results" "ok, ETIMEDOUT"
    (pp_rs (List.rev_map snd !completions));
  (match List.rev !blocked with
  | [ first; second ] ->
      Alcotest.(check bool) "first wait blocked until the post" true
        (first >= 900_000 && first < 1_100_000);
      Alcotest.(check bool) "second wait blocked for its timeout" true
        (second >= 1000 && second < 100_000)
  | b -> Alcotest.failf "%d blocked waits, expected 2" (List.length b));
  Alcotest.(check bool) "a post before the wait is counted" true (!early = S.Ok_unit)

(* ------------------------------------------------------------------ *)
(* Unix sockets *)

let test_unix_socket_roundtrip () =
  let k = fresh () in
  let got = ref "" in
  let _ =
    spawn k "daemon" (fun _ ->
        let lfd = expect_fd (K.syscall (S.Unix_listen { path = "/run/mcr.sock" })) in
        let conn = expect_fd (K.syscall (S.Accept { fd = lfd; nonblock = false })) in
        got := expect_data (K.syscall (S.Read { fd = conn; max = 64; nonblock = false })))
  in
  let _ =
    spawn k "ctl" (fun _ ->
        let fd = expect_fd (K.syscall (S.Unix_connect { path = "/run/mcr.sock" })) in
        ignore (K.syscall (S.Write { fd; data = "UPDATE" })))
  in
  K.run k;
  Alcotest.(check string) "command received" "UPDATE" !got

(* A parked Unix-domain listener completes connects into its SYN-queue
   analog: invisible to Accept and Poll until unpark moves them, in arrival
   order, into the backlog; the parking ledger counts each one. *)
let test_unix_connect_parked () =
  let k = fresh () in
  let while_parked = ref S.Ok_unit and poll_parked = ref S.Ok_unit and got = ref [] in
  let daemon =
    spawn k "daemon" (fun _ ->
        let lfd = expect_fd (K.syscall (S.Unix_listen { path = "/run/p.sock" })) in
        ignore (K.syscall (S.Sem_wait { name = "checked"; timeout_ns = None }));
        while_parked := K.syscall (S.Accept { fd = lfd; nonblock = true });
        poll_parked := K.syscall (S.Poll { fds = [ lfd ]; timeout_ns = None; nonblock = true });
        ignore (K.syscall (S.Sem_wait { name = "unparked"; timeout_ns = None }));
        for _ = 1 to 3 do
          let conn = expect_fd (K.syscall (S.Accept { fd = lfd; nonblock = true })) in
          got := expect_data (K.syscall (S.Read { fd = conn; max = 8; nonblock = false })) :: !got
        done)
  in
  ignore (K.run_until k ~max_ns:1_000_000 (fun () -> K.fds daemon <> []));
  Alcotest.(check int) "one listener parked" 1 (K.park_listeners k daemon);
  let connected = ref 0 in
  List.iter
    (fun i ->
      ignore
        (spawn k (Printf.sprintf "c%d" i) (fun _ ->
             ignore (K.syscall (S.Nanosleep { ns = i * 1000 }));
             let fd = expect_fd (K.syscall (S.Unix_connect { path = "/run/p.sock" })) in
             incr connected;
             ignore (K.syscall (S.Write { fd; data = Printf.sprintf "c%d" i })))))
    [ 1; 2; 3 ];
  ignore (K.run_until k ~max_ns:(K.clock_ns k + 1_000_000) (fun () -> false));
  Alcotest.(check int) "every connect completed" 3 !connected;
  K.post_semaphore k "checked";
  ignore (K.run_until k ~max_ns:(K.clock_ns k + 1_000_000) (fun () -> false));
  Alcotest.(check bool) "parked connection invisible to Accept" true
    (!while_parked = S.Err S.EAGAIN);
  Alcotest.(check bool) "parked connection invisible to Poll" true (!poll_parked = S.Ok_ready []);
  let s = K.parking_stats k in
  Alcotest.(check (list int)) "parked, not yet resumed" [ 3; 0; 0 ] [ s.parked; s.resumed; s.aborted ];
  Alcotest.(check int) "unpark resumes all three" 3 (K.unpark_listeners k daemon);
  K.post_semaphore k "unparked";
  K.run k;
  Alcotest.(check (list string)) "accepted in arrival order" [ "c1"; "c2"; "c3" ] (List.rev !got);
  let s = K.parking_stats k in
  Alcotest.(check (list int)) "ledger after unpark" [ 3; 3; 0 ] [ s.parked; s.resumed; s.aborted ]

(* ------------------------------------------------------------------ *)
(* Reserved fd mode *)

let test_reserved_fd_mode () =
  let k = fresh () in
  let fds = ref [] in
  let _ =
    spawn k "p" (fun th ->
        let fd1 = expect_fd (K.syscall S.Socket) in
        K.set_reserved_fd_mode (K.thread_proc th) true;
        let fd2 = expect_fd (K.syscall S.Socket) in
        let fd3 = expect_fd (K.syscall S.Socket) in
        K.set_reserved_fd_mode (K.thread_proc th) false;
        let fd4 = expect_fd (K.syscall S.Socket) in
        fds := [ fd1; fd2; fd3; fd4 ])
  in
  K.run k;
  match !fds with
  | [ fd1; fd2; fd3; fd4 ] ->
      Alcotest.(check int) "normal low fd" 3 fd1;
      Alcotest.(check bool) "reserved high range" true (fd2 >= 1000);
      Alcotest.(check int) "reserved monotonic" (fd2 + 1) fd3;
      Alcotest.(check bool) "back to low range" true (fd4 < 1000)
  | _ -> Alcotest.fail "expected four fds"

(* ------------------------------------------------------------------ *)
(* Hooks: interceptor, monitor, block monitor *)

let test_interceptor_short_circuit () =
  let k = fresh () in
  let res = ref S.Ok_unit in
  let p =
    spawn k "p" (fun _ ->
        ignore (K.syscall (S.Nanosleep { ns = 10 }));
        res := K.syscall S.Socket)
  in
  K.set_interceptor p
    (Some
       (fun _ call ->
         match call with S.Socket -> K.Short_circuit (S.Ok_fd 777) | _ -> K.Execute));
  K.run k;
  Alcotest.(check bool) "short-circuited result" true (!res = S.Ok_fd 777);
  (* the fd was not actually created *)
  Alcotest.(check (list int)) "no real fd installed" [] (K.fds p)

let test_monitor_records_calls () =
  let k = fresh () in
  let log = ref [] in
  let p =
    spawn k "p" (fun _ ->
        ignore (K.syscall S.Socket);
        ignore (K.syscall S.Getpid))
  in
  K.set_monitor p (Some (fun _ call result -> log := (S.call_name call, result) :: !log));
  K.run k;
  let names = List.rev_map fst !log in
  Alcotest.(check (list string)) "both calls recorded" [ "socket"; "getpid" ] names

let test_monitor_sees_blocking_results () =
  let k = fresh () in
  let log = ref [] in
  let server =
    spawn k "server" (fun _ ->
        let fd = expect_fd (K.syscall S.Socket) in
        ignore (K.syscall (S.Bind { fd; port = 80 }));
        ignore (K.syscall (S.Listen { fd; backlog = 4 }));
        ignore (K.syscall (S.Accept { fd; nonblock = false })))
  in
  K.set_monitor server
    (Some
       (fun _ call result ->
         if S.call_name call = "accept" then log := result :: !log));
  let _ = spawn k "client" (fun _ -> ignore (connect_retry 80)) in
  K.run k;
  match !log with
  | [ S.Ok_fd _ ] -> ()
  | _ -> Alcotest.fail "accept completion not recorded"

let test_block_monitor_measures_time () =
  let k = fresh () in
  let blocked = ref 0 in
  K.set_block_monitor k
    (Some (fun _ call ~blocked_ns -> if S.call_name call = "sem_wait" then blocked := blocked_ns));
  let _ =
    spawn k "w" (fun _ -> ignore (K.syscall (S.Sem_wait { name = "s"; timeout_ns = None })))
  in
  let _ =
    spawn k "p" (fun _ ->
        ignore (K.syscall (S.Nanosleep { ns = 2_000_000 }));
        K.post_semaphore k "s")
  in
  K.run k;
  Alcotest.(check bool) "blocked at least the sleep" true (!blocked >= 2_000_000)

(* ------------------------------------------------------------------ *)
(* Call stacks *)

let test_callstack_ids () =
  let k = fresh () in
  let ids = ref [] in
  let _ =
    spawn k "p" (fun th ->
        K.push_frame th "main";
        let id_main = K.callstack_id th in
        K.push_frame th "server_init";
        let id_init = K.callstack_id th in
        K.pop_frame th;
        let id_back = K.callstack_id th in
        ids := [ id_main; id_init; id_back ])
  in
  K.run k;
  match !ids with
  | [ a; b; c ] ->
      Alcotest.(check bool) "nested differs" true (a <> b);
      Alcotest.(check int) "pop restores" a c
  | _ -> Alcotest.fail "expected three ids"

(* A descriptor installed by K.transfer_fd shares the open file
   description: one offset, and a refcount that outlives either number. *)
let test_dup_shares_offset () =
  let k = fresh () in
  K.fs_write k ~path:"/f" "abcdef";
  let seen = ref ("", "") in
  let _ =
    spawn k "p" (fun th ->
        let p = K.thread_proc th in
        let fd = expect_fd (K.syscall (S.Open { path = "/f"; create = false })) in
        let fd2 = Result.get_ok (K.transfer_fd k ~src:p ~fd ~dst:p ~at:(fd + 100)) in
        let a = expect_data (K.syscall (S.Read { fd; max = 3; nonblock = false })) in
        let b = expect_data (K.syscall (S.Read { fd = fd2; max = 3; nonblock = false })) in
        seen := (a, b))
  in
  K.run k;
  Alcotest.(check (pair string string)) "offset shared" ("abc", "def") !seen

let test_close_one_dup_keeps_description () =
  let k = fresh () in
  K.fs_write k ~path:"/f" "xy";
  let got = ref "" in
  let _ =
    spawn k "p" (fun th ->
        let p = K.thread_proc th in
        let fd = expect_fd (K.syscall (S.Open { path = "/f"; create = false })) in
        let fd2 = Result.get_ok (K.transfer_fd k ~src:p ~fd ~dst:p ~at:(fd + 100)) in
        ignore (K.syscall (S.Close { fd }));
        got := expect_data (K.syscall (S.Read { fd = fd2; max = 10; nonblock = false })))
  in
  K.run k;
  Alcotest.(check string) "transferred fd survives close of sibling" "xy" !got

let test_poll_on_closed_fd_not_readable () =
  let k = fresh () in
  let ready = ref [ 1 ] in
  let _ =
    spawn k "p" (fun _ ->
        let fd = expect_fd (K.syscall (S.Open { path = "/nope"; create = true })) in
        ignore (K.syscall (S.Close { fd }));
        match K.syscall (S.Poll { fds = [ fd ]; timeout_ns = Some 1000; nonblock = false }) with
        | S.Ok_ready r -> ready := r
        | _ -> ())
  in
  K.run k;
  Alcotest.(check (list int)) "closed fd never ready" [] !ready

let test_run_until_respects_deadline () =
  let k = fresh () in
  let _ = spawn k "p" (fun _ -> ignore (K.syscall (S.Nanosleep { ns = 1_000_000_000 }))) in
  let hit = K.run_until k ~max_ns:(K.clock_ns k + 1_000_000) (fun () -> false) in
  Alcotest.(check bool) "predicate never held" false hit;
  Alcotest.(check bool) "clock did not run past the deadline by much" true
    (K.clock_ns k < 10_000_000)

(* charge freezes pending timers for the span (they leapfrog to its end);
   charge_concurrent dispatches them inside it — the dedicated-core
   accounting the latency bench's client processes rely on. *)
let test_charge_vs_charge_concurrent () =
  let woke_at charge =
    let k = fresh () in
    let woke = ref (-1) in
    let _ =
      spawn k "sleeper" (fun _ ->
          ignore (K.syscall (S.Nanosleep { ns = 5_000_000 }));
          woke := K.clock_ns k)
    in
    (* let the sleeper enter its sleep, then bill a 20 ms span *)
    ignore (K.run_until k ~max_ns:1_000_000 (fun () -> false));
    charge k 20_000_000;
    K.run k;
    !woke
  in
  let frozen = woke_at K.charge in
  let live = woke_at K.charge_concurrent in
  Alcotest.(check bool) "charge leapfrogs the timer to the span end" true
    (frozen >= 20_000_000);
  Alcotest.(check bool) "charge_concurrent fires the timer inside the span" true
    (live >= 5_000_000 && live < 20_000_000)

let test_transfer_fd_semantics () =
  let k = fresh () in
  K.fs_write k ~path:"/f" "shared";
  let src = spawn k "src" (fun _ -> ignore (K.syscall (S.Open { path = "/f"; create = false }))) in
  let read_result = ref "" in
  let dst =
    spawn k "dst" (fun _ ->
        ignore (K.syscall (S.Sem_wait { name = "fd.ready"; timeout_ns = None }));
        read_result := expect_data (K.syscall (S.Read { fd = 77; max = 10; nonblock = false })))
  in
  ignore (K.run_until k ~max_ns:10_000_000 (fun () -> K.fds src <> []));
  let fd = List.hd (K.fds src) in
  (match K.transfer_fd k ~src ~fd ~dst ~at:77 with
  | Ok n -> Alcotest.(check int) "installed at 77" 77 n
  | Error e -> Alcotest.failf "transfer_fd: %a" S.pp_err e);
  (* collision on second transfer *)
  (match K.transfer_fd k ~src ~fd ~dst ~at:77 with
  | Error S.EEXIST -> ()
  | _ -> Alcotest.fail "expected EEXIST");
  (match K.transfer_fd k ~src ~fd:999 ~dst ~at:78 with
  | Error S.EBADF -> ()
  | _ -> Alcotest.fail "expected EBADF");
  K.post_semaphore k "fd.ready";
  K.run k;
  Alcotest.(check string) "dst reads through the shared description" "shared" !read_result

let test_callstack_id_matches_manual_hash () =
  let k = fresh () in
  let got = ref 0 in
  let _ =
    spawn k "p" (fun th ->
        K.push_frame th "main";
        K.push_frame th "init";
        got := K.callstack_id th)
  in
  K.run k;
  Alcotest.(check int) "hash of outermost-first names" (Mcr_util.Fnv.strings [ "main"; "init" ]) !got

let test_kill_process_closes_fds_and_wakes_peer () =
  let k = fresh () in
  let eof = ref "x" in
  let victim = ref None in
  let _ =
    setup_server_client k
      ~server_body:(fun th fd ->
        victim := Some (K.thread_proc th);
        let _conn = expect_fd (K.syscall (S.Accept { fd; nonblock = false })) in
        (* park forever; will be killed *)
        ignore (K.syscall (S.Nanosleep { ns = max_int / 2 })))
      ~client_body:(fun _ ->
        let fd = connect_retry 80 in
        eof := expect_data (K.syscall (S.Read { fd; max = 10; nonblock = false })))
  in
  (* let the connection establish, then kill the server *)
  ignore (K.run_until k ~max_ns:10_000_000 (fun () -> false));
  (match !victim with Some p -> K.kill_process k p ~status:9 | None -> ());
  K.run k;
  Alcotest.(check string) "peer saw EOF after kill" "" !eof

let test_exit_and_kill_unmap_memory () =
  let k = fresh () in
  let touch th =
    let sp = K.aspace (K.thread_proc th) in
    let base =
      Aspace.map sp (Aspace.Near Mcr_vmem.Region.Heap) ~size:(4 * 4096) Mcr_vmem.Region.Heap
    in
    Aspace.write_word sp base 42
  in
  let exited =
    spawn k "exits" (fun th ->
        touch th;
        ignore (K.syscall (S.Exit { status = 3 })))
  in
  let killed =
    spawn k "killed" (fun th ->
        touch th;
        ignore (K.syscall (S.Sem_wait { name = "never"; timeout_ns = None })))
  in
  K.run k;
  Alcotest.(check bool) "victim still mapped before the kill" true
    (Aspace.resident_bytes (K.aspace killed) > 0);
  K.kill_process k killed ~status:9;
  let statuses = ref [] in
  let _ =
    spawn k "reaper" (fun _ ->
        statuses :=
          List.map (fun p -> K.syscall (S.Waitpid { pid = K.pid p })) [ exited; killed ])
  in
  K.run k;
  List.iter
    (fun p ->
      let name = K.proc_name p in
      Alcotest.(check int) (name ^ ": nothing resident") 0 (Aspace.resident_bytes (K.aspace p));
      Alcotest.(check int) (name ^ ": no regions") 0 (List.length (Aspace.regions (K.aspace p)));
      Alcotest.(check bool) (name ^ ": still found") true
        (match K.find_proc k (K.pid p) with Some q -> q == p | None -> false);
      Alcotest.(check bool) (name ^ ": not alive") false (K.alive p))
    [ exited; killed ];
  match !statuses with
  | [ S.Ok_status 3; S.Ok_status 9 ] -> ()
  | rs ->
      Alcotest.failf "waitpid: %s"
        (String.concat ", " (List.map (Format.asprintf "%a" S.pp_result) rs))

(* An exited process keeps its pid, name, parent, status and initial
   thread, and drops its fd table and address space: 2,000 exited clients
   that each held a socket cost at most 40 live words apiece (the process
   and thread records and the kernel's two indexes of them). *)
let test_exited_process_footprint () =
  let n = 2_000 in
  let k = fresh () in
  Gc.full_major ();
  let before = (Gc.stat ()).Gc.live_words in
  for i = 1 to n do
    ignore
      (spawn k "client" (fun _ ->
           ignore (K.syscall S.Socket);
           ignore (K.syscall (S.Exit { status = i land 7 }))))
  done;
  K.run k;
  Gc.full_major ();
  let words = float_of_int ((Gc.stat ()).Gc.live_words - before) /. float_of_int n in
  if words > 40. then Alcotest.failf "%.1f live words per exited process, want at most 40" words;
  (* the dead keep what Waitpid and the lookups read *)
  let procs = K.procs k in
  Alcotest.(check int) "every client found" n (List.length procs);
  List.iteri
    (fun i p ->
      Alcotest.(check (option int)) "status kept" (Some ((i + 1) land 7)) (K.exit_status p);
      Alcotest.(check bool) "found by pid" true
        (match K.find_proc k (K.pid p) with Some q -> q == p | None -> false))
    procs;
  (* a descriptor passed to one exited process reaches no other *)
  match procs with
  | a :: b :: _ ->
      let holder =
        spawn k "holder" (fun _ ->
            ignore (K.syscall S.Socket);
            ignore (K.syscall (S.Sem_wait { name = "never"; timeout_ns = None })))
      in
      K.run k;
      let fd = List.hd (K.fds holder) in
      Alcotest.(check bool) "install into an exited process" true
        (K.transfer_fd k ~src:holder ~fd ~dst:a ~at:7 = Ok 7);
      Alcotest.(check (list int)) "it holds the descriptor" [ 7 ] (K.fds a);
      Alcotest.(check (list int)) "another exited process holds none" [] (K.fds b);
      Alcotest.(check int) "nor any space" 0 (List.length (Aspace.regions (K.aspace b)))
  | _ -> Alcotest.fail "no clients"

(* ------------------------------------------------------------------ *)
(* Deferred starts: a process that exists only from its arrival *)

let spawn_at k name ~arrival main = K.spawn_at k ~arrival ~name ~entry:"main" ~main ()

(* Exactly one scheduling step (or none, when nothing is left to run). *)
let step k =
  let asked = ref false in
  ignore
    (K.run_until k (fun () ->
         let again = !asked in
         asked := true;
         again))

type dc_client = { dc_offset_ns : int; dc_rounds : int }

(* What the monitors saw, in order: the thread, the call, its result or the
   time it blocked, and the clock. *)
type dc_event =
  | Completed of int * S.call * S.result * int
  | Unblocked of int * S.call * int * int

(* A server that answers each connection after 50 us of work, and one
   client per [dc_client] that arrives [dc_offset_ns] after the last
   spawn (a negative offset has passed by its first dispatch), then makes
   [dc_rounds] request rounds. With [deferred], a client is a
   [K.spawn_at] start; without, a process whose body first sleeps until
   its arrival. The spawn hook sets the monitors, which keep the events
   of the server and of clients whose body has started. Returns the
   kernel, each client's pid, its thread once its body has started, and
   the events. *)
let dc_kernel ~deferred clients =
  let k = fresh () in
  let events = ref [] in
  let arrived = Hashtbl.create 8 in
  let note th e = if Hashtbl.mem arrived (K.tid th) then events := e :: !events in
  K.set_block_monitor k
    (Some (fun th call ~blocked_ns -> note th (Unblocked (K.tid th, call, blocked_ns, K.clock_ns k))));
  let monitor th call r = note th (Completed (K.tid th, call, r, K.clock_ns k)) in
  K.set_spawn_hook k (Some (fun p -> K.set_monitor p (Some monitor)));
  let server =
    spawn k "server" (fun _ ->
        let fd = expect_fd (K.syscall S.Socket) in
        ignore (K.syscall (S.Bind { fd; port = 80 }));
        ignore (K.syscall (S.Listen { fd; backlog = 64 }));
        while true do
          let c = expect_fd (K.syscall (S.Accept { fd; nonblock = false })) in
          ignore (K.syscall (S.Read { fd = c; max = 64; nonblock = false }));
          ignore (K.syscall (S.Nanosleep { ns = 50_000 }));
          ignore (K.syscall (S.Write { fd = c; data = "ok" }));
          ignore (K.syscall (S.Close { fd = c }))
        done)
  in
  Hashtbl.replace arrived (K.tid (List.hd (K.proc_threads server))) ();
  let base = ref 0 in
  let threads = Array.make (List.length clients) None in
  let pids =
    List.mapi
      (fun i c ->
        let arrival _ = !base + c.dc_offset_ns in
        let rounds th =
          Hashtbl.replace arrived (K.tid th) ();
          threads.(i) <- Some th;
          for _ = 1 to c.dc_rounds do
            let fd = connect_retry 80 in
            ignore (K.syscall (S.Write { fd; data = "req" }));
            ignore (K.syscall (S.Read { fd; max = 64; nonblock = false }));
            ignore (K.syscall (S.Close { fd }));
            ignore (K.syscall (S.Nanosleep { ns = 20_000 }))
          done
        in
        let name = "client-" ^ string_of_int i in
        if deferred then spawn_at k name ~arrival rounds
        else
          K.pid
            (spawn k name (fun th ->
                 let ns = arrival 0 - K.clock_ns k in
                 if ns > 0 then ignore (K.syscall (S.Nanosleep { ns }));
                 rounds th)))
      clients
  in
  base := K.clock_ns k;
  (k, pids, threads, events)

let dc_client_gen =
  QCheck.Gen.(
    map2
      (fun dc_offset_ns dc_rounds -> { dc_offset_ns; dc_rounds })
      (int_range (-2_000_000) 8_000_000)
      (int_range 0 3))

let dc_print cs =
  String.concat "; " (List.map (fun c -> Printf.sprintf "%d/%d" c.dc_offset_ns c.dc_rounds) cs)

let prop_deferred_lockstep =
  QCheck.Test.make ~name:"a deferred start runs as a body that sleeps first" ~count:200
    (QCheck.make ~print:dc_print QCheck.Gen.(list_size (int_range 1 24) dc_client_gen))
    (fun clients ->
      let ka, pa, ta, ea = dc_kernel ~deferred:false clients in
      let kb, pb, tb, eb = dc_kernel ~deferred:true clients in
      if pa <> pb then QCheck.Test.fail_report "the clients have different pids";
      let steps = ref 0 in
      while not (K.quiescent_system ka && K.quiescent_system kb) do
        step ka;
        step kb;
        incr steps;
        if K.clock_ns ka <> K.clock_ns kb || K.idle_ns ka <> K.idle_ns kb then
          QCheck.Test.fail_reportf "step %d: clock %d/%d idle %d/%d" !steps (K.clock_ns ka)
            (K.clock_ns kb) (K.idle_ns ka) (K.idle_ns kb);
        Array.iteri
          (fun i a ->
            match (a, tb.(i)) with
            | None, None -> ()
            | Some a, Some b ->
                if K.tid a <> K.tid b || K.pid (K.thread_proc a) <> K.pid (K.thread_proc b) then
                  QCheck.Test.fail_reportf "client %d: tid %d/%d" i (K.tid a) (K.tid b);
                if K.blocked_in a <> K.blocked_in b || K.blocked_since a <> K.blocked_since b then
                  QCheck.Test.fail_reportf "step %d: client %d blocks differently" !steps i
            | Some _, None | None, Some _ ->
                QCheck.Test.fail_reportf "step %d: client %d arrives in one kernel only" !steps i)
          ta;
        if !steps > 1_000_000 then QCheck.Test.fail_report "no end"
      done;
      if !ea <> !eb then QCheck.Test.fail_report "the monitors saw different events";
      Array.for_all (function Some th -> not (K.thread_alive th) | None -> false) tb)

(* A client whose arrival has come by its first dispatch (here, at that
   very instant; the property draws past ones) starts its body in that
   step, with no sleep charged; one that has not arrived is in no process
   list until its sleep ends, and the spawn hook meets it then. *)
let test_deferred_late_arrival () =
  let k = fresh () in
  let costs = K.costs k in
  let started = ref [] in
  let hooked = ref [] in
  K.set_spawn_hook k (Some (fun p -> hooked := (K.pid p, K.clock_ns k) :: !hooked));
  let main th = started := (K.tid th, K.clock_ns k) :: !started in
  let dispatch = (2 * costs.Costs.spawn_ns) + costs.Costs.switch_ns in
  let late = spawn_at k "late" ~arrival:(fun _ -> dispatch) main in
  let on_time = spawn_at k "on-time" ~arrival:(fun _ -> 5_000_000) main in
  let spawned = K.clock_ns k in
  Alcotest.(check int) "each spawn charged once" (2 * costs.Costs.spawn_ns) spawned;
  Alcotest.(check (list int)) "pids in spawn order" [ late + 1 ] [ on_time ];
  Alcotest.(check bool) "nothing built before the first dispatch" true
    (K.procs k = [] && K.find_proc k late = None && !hooked = []);
  step k;
  let at_body = spawned + costs.Costs.switch_ns in
  Alcotest.(check (list (pair int int))) "the late body ran at its dispatch" [ (1, at_body) ]
    !started;
  Alcotest.(check (list int)) "only the late client is built" [ late ] (List.map K.pid (K.procs k));
  Alcotest.(check bool) "late client exited" true
    (match K.find_proc k late with Some p -> K.exit_status p = Some 0 | None -> false);
  step k;
  Alcotest.(check int) "the on-time dispatch charges its one syscall"
    (at_body + costs.Costs.switch_ns + costs.Costs.syscall_ns)
    (K.clock_ns k);
  Alcotest.(check bool) "and builds nothing" true (K.find_proc k on_time = None);
  K.run k;
  let woke = 5_000_000 + costs.Costs.syscall_ns in
  Alcotest.(check (list (pair int int))) "built at the end of its sleep"
    [ (on_time, woke); (late, spawned + costs.Costs.switch_ns) ]
    !hooked;
  Alcotest.(check (list (pair int int))) "its body ran in the next step"
    [ (2, woke + costs.Costs.switch_ns); (1, at_body) ]
    !started;
  Alcotest.(check (list int)) "procs in the order they were built" [ late; on_time ]
    (List.map K.pid (K.procs k))

let () =
  Alcotest.run "mcr_simos"
    [
      ( "lifecycle",
        [
          Alcotest.test_case "runs and exits" `Quick test_process_runs_and_exits;
          Alcotest.test_case "exit syscall" `Quick test_exit_syscall;
          Alcotest.test_case "crash status" `Quick test_crash_reports_139;
          Alcotest.test_case "clock advances" `Quick test_clock_advances;
          Alcotest.test_case "nanosleep" `Quick test_nanosleep_advances_clock;
          Alcotest.test_case "getpid/getppid" `Quick test_getpid_getppid;
          Alcotest.test_case "force pid" `Quick test_force_pid;
        ] );
      ( "sockets",
        [
          Alcotest.test_case "accept/connect/read/write" `Quick test_accept_connect_read_write;
          Alcotest.test_case "connect refused" `Quick test_connect_refused_no_listener;
          Alcotest.test_case "bind conflict" `Quick test_bind_conflict;
          Alcotest.test_case "read EOF on close" `Quick test_read_eof_on_close;
          Alcotest.test_case "EPIPE to closed peer" `Quick test_write_to_closed_peer_epipe;
          Alcotest.test_case "nonblocking EAGAIN" `Quick test_nonblocking_accept_eagain;
          Alcotest.test_case "partial reads ordered" `Quick test_partial_read_preserves_order;
          Alcotest.test_case "backlog refusal" `Quick test_backlog_refuses_when_full;
          Alcotest.test_case "accept_timed" `Quick test_accept_timed;
          Alcotest.test_case "tcp backlog capped, unix not" `Quick test_backlog_tcp_capped_unix_not;
        ] );
      ( "parking",
        [ Alcotest.test_case "unix connect to a parked listener" `Quick test_unix_connect_parked ] );
      ( "poll",
        [
          Alcotest.test_case "ready fd" `Quick test_poll_returns_ready_fd;
          Alcotest.test_case "timeout" `Quick test_poll_timeout_empty;
          Alcotest.test_case "multiple fds" `Quick test_poll_multiple_fds;
        ] );
      ( "files",
        [
          Alcotest.test_case "read/write" `Quick test_file_read_write;
          Alcotest.test_case "missing ENOENT" `Quick test_open_missing_enoent;
          Alcotest.test_case "create and append" `Quick test_open_create_and_append;
        ] );
      ( "processes",
        [
          Alcotest.test_case "fork runs entry" `Quick test_fork_runs_entry;
          Alcotest.test_case "fork inherits fds+memory" `Quick test_fork_inherits_fds_and_memory;
          Alcotest.test_case "fork memory is a copy" `Quick test_fork_memory_is_copy;
          Alcotest.test_case "threads share memory" `Quick test_thread_create_and_shared_memory;
          Alcotest.test_case "waitpid blocks" `Quick test_waitpid_blocks_until_exit;
          Alcotest.test_case "waitpid ECHILD" `Quick test_waitpid_unknown_echild;
          Alcotest.test_case "fork child identity" `Quick test_fork_child_identity;
        ] );
      ( "semaphores",
        [
          Alcotest.test_case "wait/post" `Quick test_sem_wait_post;
          Alcotest.test_case "timeout" `Quick test_sem_timeout;
          Alcotest.test_case "counting" `Quick test_sem_counts;
          Alcotest.test_case "controller post" `Quick test_controller_post;
        ] );
      ( "unix-fd-passing",
        [
          Alcotest.test_case "unix roundtrip" `Quick test_unix_socket_roundtrip;
        ] );
      ( "fd-modes",
        [ Alcotest.test_case "reserved range" `Quick test_reserved_fd_mode ] );
      ( "hooks",
        [
          Alcotest.test_case "interceptor short-circuit" `Quick test_interceptor_short_circuit;
          Alcotest.test_case "monitor records" `Quick test_monitor_records_calls;
          Alcotest.test_case "monitor sees blocking results" `Quick
            test_monitor_sees_blocking_results;
          Alcotest.test_case "block monitor time" `Quick test_block_monitor_measures_time;
        ] );
      ( "callstack",
        [ Alcotest.test_case "ids" `Quick test_callstack_ids ] );
      ( "kill",
        [
          Alcotest.test_case "kill closes fds" `Quick test_kill_process_closes_fds_and_wakes_peer;
          Alcotest.test_case "exit and kill unmap memory" `Quick test_exit_and_kill_unmap_memory;
          Alcotest.test_case "an exited process drops its tables" `Quick
            test_exited_process_footprint;
        ] );
      ( "descriptions",
        [
          Alcotest.test_case "dup shares offset" `Quick test_dup_shares_offset;
          Alcotest.test_case "close one dup" `Quick test_close_one_dup_keeps_description;
          Alcotest.test_case "poll closed fd" `Quick test_poll_on_closed_fd_not_readable;
          Alcotest.test_case "transfer_fd" `Quick test_transfer_fd_semantics;
        ] );
      ( "time-and-ids",
        [
          Alcotest.test_case "run_until deadline" `Quick test_run_until_respects_deadline;
          Alcotest.test_case "charge vs charge_concurrent" `Quick
            test_charge_vs_charge_concurrent;
          Alcotest.test_case "callstack hash" `Quick test_callstack_id_matches_manual_hash;
        ] );
      ( "deferred-start",
        [
          QCheck_alcotest.to_alcotest prop_deferred_lockstep;
          Alcotest.test_case "a late arrival starts at its first dispatch" `Quick
            test_deferred_late_arrival;
        ] );
    ]
