(* Unit tests for Mcr_replay: call classification, startup-log recording,
   replay matching and conflicts, pid virtualization, fd garbage
   collection — observed through the Listing 1 server. *)

module K = Mcr_simos.Kernel
module S = Mcr_simos.Sysdefs
module P = Mcr_program.Progdef
module Logdefs = Mcr_replay.Logdefs
module Record = Mcr_replay.Record
module Replayer = Mcr_replay.Replayer
module Manager = Mcr_core.Manager
module Listing1 = Mcr_servers.Listing1
module Aspace = Mcr_vmem.Aspace

(* ------------------------------------------------------------------ *)
(* Logdefs: classification *)

let test_replay_class () =
  let replayed =
    [
      S.Socket;
      S.Bind { fd = 1000; port = 80 };
      S.Listen { fd = 1000; backlog = 8 };
      S.Unix_listen { path = "/x" };
      S.Open { path = "/etc/x"; create = false };
      S.Close { fd = 1000 };
      S.Getpid;
      S.Getppid;
      S.Fork { entry = "w" };
    ]
  in
  let live =
    [
      S.Accept { fd = 1000; nonblock = false };
      S.Read { fd = 3; max = 10; nonblock = false };
      S.Write { fd = 3; data = "x" };
      S.Connect { port = 80 };
      S.Nanosleep { ns = 1 };
      S.Waitpid { pid = 2 };
      S.Thread_create { entry = "t" };
    ]
  in
  List.iter
    (fun c ->
      Alcotest.(check bool) (S.call_name c ^ " replayed") true (Logdefs.replay_class c))
    replayed;
  List.iter
    (fun c -> Alcotest.(check bool) (S.call_name c ^ " live") false (Logdefs.replay_class c))
    live

let test_same_kind_and_deep_equal () =
  let a = S.Bind { fd = 1000; port = 80 } in
  let b = S.Bind { fd = 1000; port = 81 } in
  Alcotest.(check bool) "same kind different args" true (Logdefs.same_kind a b);
  Alcotest.(check bool) "deep equal distinguishes args" false (Logdefs.deep_equal a b);
  Alcotest.(check bool) "deep equal on identical" true
    (Logdefs.deep_equal a (S.Bind { fd = 1000; port = 80 }));
  Alcotest.(check bool) "different kinds" false (Logdefs.same_kind a S.Socket)

(* ------------------------------------------------------------------ *)
(* Recording *)

let boot () =
  let kernel = K.create () in
  K.fs_write kernel ~path:Listing1.config_path "welcome=hi";
  let m = Manager.launch kernel (Listing1.v1 ()) in
  assert (Manager.wait_startup m ());
  (kernel, m)

let request kernel =
  let done_ = ref false in
  let p =
    K.spawn_process kernel ~image:(K.Fresh_image (Aspace.create ())) ~name:"c" ~entry:"main"
      ~main:(fun _ ->
        let rec connect n =
          match K.syscall (S.Connect { port = Listing1.port }) with
          | S.Ok_fd fd -> Some fd
          | S.Err S.ECONNREFUSED when n > 0 ->
              ignore (K.syscall (S.Nanosleep { ns = 1_000_000 }));
              connect (n - 1)
          | _ -> None
        in
        (match connect 100 with
        | Some fd ->
            ignore (K.syscall (S.Write { fd; data = "GET /" }));
            ignore (K.syscall (S.Read { fd; max = 256; nonblock = false }))
        | None -> ());
        done_ := true)
      ()
  in
  ignore
    (K.run_until kernel ~max_ns:(K.clock_ns kernel + 60_000_000_000) (fun () -> not (K.alive p)))

(* peek at the recorder through a fresh manual session *)
let record_listing1 () =
  let kernel = K.create () in
  K.fs_write kernel ~path:Listing1.config_path "welcome=hi";
  let image = P.image_of_proc_exn (Mcr_program.Loader.launch kernel (Listing1.v1 ())) in
  (* the manager normally subscribes this first-quiesce processing *)
  P.Tree.on_first_quiesce image.P.i_tree (fun im ->
      Mcr_alloc.Heap.end_startup im.P.i_heap;
      Aspace.epoch_reset im.P.i_aspace ~name:"startup");
  let session = Record.start kernel image in
  ignore
    (K.run_until kernel
       ~max_ns:(K.clock_ns kernel + 10_000_000_000)
       (fun () -> image.P.i_startup_complete));
  (kernel, session)

let call_names (plog : Logdefs.plog) =
  List.map (fun (e : Logdefs.entry) -> S.call_name e.Logdefs.call) plog.Logdefs.entries

let test_record_captures_startup () =
  let _, session = record_listing1 () in
  match Record.logs session with
  | [ plog ] ->
      Alcotest.(check bool) "root key" true (plog.Logdefs.key = Logdefs.Root);
      Alcotest.(check bool) "closed at first quiescent point" true plog.Logdefs.closed;
      let names = call_names plog in
      List.iter
        (fun expected ->
          Alcotest.(check bool) (expected ^ " recorded") true (List.mem expected names))
        [ "open"; "read"; "close"; "socket"; "bind"; "listen" ];
      (* the quiescent accept itself is not part of the startup log *)
      Alcotest.(check bool) "no accept in startup log" false (List.mem "accept" names)
  | logs -> Alcotest.failf "expected one process log, got %d" (List.length logs)

let test_record_reserved_fd_range () =
  let _, session = record_listing1 () in
  match Record.logs session with
  | [ plog ] ->
      List.iter
        (fun (e : Logdefs.entry) ->
          match e.Logdefs.result with
          | S.Ok_fd fd ->
              Alcotest.(check bool)
                (Printf.sprintf "startup fd %d in reserved range" fd)
                true (fd >= 1000)
          | _ -> ())
        plog.Logdefs.entries
  | _ -> Alcotest.fail "expected one log"

let test_record_callstacks_stable () =
  (* two independent recordings of the same program produce the same
     call-stack IDs (version-agnostic identity) *)
  let _, s1 = record_listing1 () in
  let _, s2 = record_listing1 () in
  let ids s =
    List.concat_map
      (fun (l : Logdefs.plog) ->
        List.map
          (fun (e : Logdefs.entry) -> (S.call_name e.Logdefs.call, e.Logdefs.callstack))
          l.Logdefs.entries)
      (Record.logs s)
  in
  Alcotest.(check bool) "identical (call, callstack-id) sequences" true (ids s1 = ids s2)

let test_record_stops_after_startup () =
  let kernel, m = boot () in
  let count_before =
    match m |> Manager.root_image |> fun _ -> Manager.memory_stats m with
    | s -> s.Manager.startup_log_entries
  in
  (* post-startup activity must not grow the startup log *)
  request kernel;
  request kernel;
  let count_after = (Manager.memory_stats m).Manager.startup_log_entries in
  Alcotest.(check int) "log frozen after startup" count_before count_after

(* ------------------------------------------------------------------ *)
(* Replay through live updates *)

let test_replay_arg_mismatch_conflict () =
  let kernel, m = boot () in
  request kernel;
  (* v2 binds a different port: a replay-class call with changed args *)
  let _m2, report = Manager.update m (Listing1.v2 ~variant:`Change_port ()) in
  Alcotest.(check bool) "update fails" false report.Manager.success;
  let has_mismatch =
    List.exists
      (function
        | Replayer.Arg_mismatch _ -> true
        | Replayer.Omitted _ | Replayer.Unsupported _ | Replayer.Injected _ -> false)
      report.Manager.replay_conflicts
  in
  Alcotest.(check bool) "argument-mismatch conflict" true has_mismatch

let test_replay_counts () =
  let kernel, m = boot () in
  request kernel;
  let _m2, report = Manager.update m (Listing1.v2 ()) in
  Alcotest.(check bool) "ok" true report.Manager.success;
  (* socket, bind, listen, open, close, getpid(s), unix_listen at least *)
  Alcotest.(check bool) "several calls replayed" true (report.Manager.replayed_calls >= 5);
  Alcotest.(check bool) "several calls live" true (report.Manager.live_calls >= 2)

let test_new_logs_support_next_update () =
  (* the reconstructed startup log has the same replayable surface as an
     original recording: kinds and multiplicities of replay-class calls *)
  let kernel, m = boot () in
  request kernel;
  let m2, r1 = Manager.update m (Listing1.v2 ()) in
  Alcotest.(check bool) "first ok" true r1.Manager.success;
  request kernel;
  let m3, r2 =
    Manager.update m2 { (Listing1.v2 ()) with P.version_tag = "3.0"; P.layout_bias = 1024 }
  in
  Alcotest.(check bool) "second ok (reconstructed log replayable)" true r2.Manager.success;
  Alcotest.(check bool) "replayed again" true (r2.Manager.replayed_calls >= 5);
  ignore m3

let test_fd_gc_on_multiprocess () =
  (* nginx: the worker must keep only the descriptors its (inherited)
     replay surface needs *)
  let kernel = K.create () in
  let m = Mcr_workloads.Testbed.launch kernel Mcr_workloads.Testbed.Nginx in
  ignore (Mcr_workloads.Testbed.benchmark kernel Mcr_workloads.Testbed.Nginx ~scale:10_000 ());
  let m2, report = Manager.update m (Mcr_servers.Nginx_sim.final ()) in
  Alcotest.(check bool) "nginx update ok" true report.Manager.success;
  let images = Manager.images m2 in
  Alcotest.(check int) "two processes" 2 (List.length images);
  let worker =
    List.find (fun (im : P.image) -> K.parent_pid im.P.i_proc <> 0) images
  in
  let master =
    List.find (fun (im : P.image) -> K.parent_pid im.P.i_proc = 0) images
  in
  let wfds = K.fds worker.P.i_proc and mfds = K.fds master.P.i_proc in
  (* both kept the listening socket; the worker did not leak e.g. a config
     fd that the old worker never had *)
  Alcotest.(check bool) "worker has fds" true (List.length wfds >= 1);
  List.iter
    (fun fd ->
      Alcotest.(check bool)
        (Printf.sprintf "worker fd %d also existed in master image" fd)
        true
        (List.mem fd mfds || fd < 1000))
    wfds

let test_reconstructed_log_equivalent_for_same_version () =
  (* the reconstructed startup log of a replayed version must carry the
     same replayable surface as an original recording: a second
     same-version hop replays it without a single conflict *)
  let kernel, m = boot () in
  request kernel;
  let m2, r1 = Manager.update m { (Listing1.v1 ()) with P.layout_bias = 512 } in
  Alcotest.(check bool) "first hop ok" true r1.Manager.success;
  request kernel;
  let _m3, r2 = Manager.update m2 { (Listing1.v1 ()) with P.layout_bias = 1024 } in
  Alcotest.(check bool) "reconstructed surface replays cleanly" true r2.Manager.success;
  Alcotest.(check int) "no conflicts at all" 0 (List.length r2.Manager.replay_conflicts);
  Alcotest.(check int) "same replay volume on both hops" r1.Manager.replayed_calls
    r2.Manager.replayed_calls

let test_unsupported_shm_conflict () =
  (* Section 7: a startup-time SysV shm id (global, no namespaces) is an
     immutable object MCR cannot virtualize — the update must roll back *)
  let kernel = K.create () in
  (* a tiny program whose startup allocates a SysV shm segment *)
  let tyenv = Mcr_types.Ty.env_create () in
  let mk tag =
    Mcr_program.Progdef.make_version ~prog:"shmd" ~version_tag:tag
      ~layout_bias:(if tag = "1" then 0 else 512)
      ~tyenv ~globals:[ ("shm_id", Mcr_types.Ty.Int) ] ~funcs:[ "main" ] ~strings:[]
      ~entries:
        [
          ( "main",
            fun t ->
              Mcr_program.Api.fn t "main" @@ fun () ->
              (match Mcr_program.Api.sys t (S.Shmget { key = 42 }) with
              | S.Ok_len id -> Mcr_program.Api.store t (Mcr_program.Api.global t "shm_id") id
              | _ -> ());
              Mcr_program.Api.loop t "main_loop" (fun () ->
                  ignore
                    (Mcr_program.Api.blocking t ~qpoint:"wait"
                       (S.Sem_wait { name = "shmd.never"; timeout_ns = None }));
                  true) );
        ]
      ~qpoints:[ ("wait", "sem_wait") ] ()
  in
  let m = Manager.launch kernel (mk "1") in
  assert (Manager.wait_startup m ());
  let m2, report = Manager.update m (mk "2") in
  Alcotest.(check bool) "rolled back" false report.Manager.success;
  Alcotest.(check bool) "unsupported-object conflict" true
    (List.exists
       (function Replayer.Unsupported _ -> true | _ -> false)
       report.Manager.replay_conflicts);
  Alcotest.(check bool) "old version resumed" true (K.alive (Manager.root_proc m2))

let test_pid_virtualization () =
  (* after an update, getpid-derived state still matches: the pidfile
     content written by the old httpd equals what the new version's
     replayed getpid reports *)
  let kernel = K.create () in
  let m = Mcr_workloads.Testbed.launch kernel Mcr_workloads.Testbed.Httpd in
  let old_pid = K.pid (Manager.root_proc m) in
  let m2, report = Manager.update m (Mcr_servers.Httpd_sim.final ()) in
  Alcotest.(check bool) "httpd update ok" true report.Manager.success;
  let new_real_pid = K.pid (Manager.root_proc m2) in
  Alcotest.(check bool) "real pids differ" true (old_pid <> new_real_pid);
  (* the pidfile still holds the old (virtual) pid, and the new version
     accepted it as its own during the pidfile check *)
  Alcotest.(check (option string)) "pidfile holds the virtual pid"
    (Some (string_of_int old_pid))
    (K.fs_read kernel ~path:"/var/run/httpd.pid")

let () =
  Alcotest.run "mcr_replay"
    [
      ( "classification",
        [
          Alcotest.test_case "replay class" `Quick test_replay_class;
          Alcotest.test_case "matching helpers" `Quick test_same_kind_and_deep_equal;
        ] );
      ( "recording",
        [
          Alcotest.test_case "captures startup" `Quick test_record_captures_startup;
          Alcotest.test_case "reserved fd range" `Quick test_record_reserved_fd_range;
          Alcotest.test_case "stable callstack ids" `Quick test_record_callstacks_stable;
          Alcotest.test_case "stops after startup" `Quick test_record_stops_after_startup;
        ] );
      ( "replay",
        [
          Alcotest.test_case "arg mismatch conflict" `Quick test_replay_arg_mismatch_conflict;
          Alcotest.test_case "replay/live counts" `Quick test_replay_counts;
          Alcotest.test_case "reconstructed logs chain" `Quick test_new_logs_support_next_update;
          Alcotest.test_case "fd gc multiprocess" `Quick test_fd_gc_on_multiprocess;
          Alcotest.test_case "pid virtualization" `Quick test_pid_virtualization;
          Alcotest.test_case "unsupported shm object" `Quick test_unsupported_shm_conflict;
          Alcotest.test_case "reconstructed log equivalence" `Quick
            test_reconstructed_log_equivalent_for_same_version;
        ] );
    ]
