(* Unit tests for Mcr_core.Manager surfaces not covered by the integration
   scenarios: accessors, request lifecycle, read-only introspection, and
   the measurement hooks. *)

module K = Mcr_simos.Kernel
module S = Mcr_simos.Sysdefs
module P = Mcr_program.Progdef
module Manager = Mcr_core.Manager
module Ctl = Mcr_core.Ctl
module Frame = Mcr_core.Frame
module Listing1 = Mcr_servers.Listing1
module Testbed = Mcr_workloads.Testbed
module Aspace = Mcr_vmem.Aspace

let boot () =
  let kernel = K.create () in
  K.fs_write kernel ~path:Listing1.config_path "welcome=hi";
  let m = Manager.launch kernel (Listing1.v1 ()) in
  assert (Manager.wait_startup m ());
  (kernel, m)

let request kernel =
  let reply = ref None in
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
        match connect 100 with
        | Some fd -> (
            ignore (K.syscall (S.Write { fd; data = "GET /" }));
            match K.syscall (S.Read { fd; max = 256; nonblock = false }) with
            | S.Ok_data d -> reply := Some d
            | _ -> ())
        | None -> ())
      ()
  in
  ignore
    (K.run_until kernel ~max_ns:(K.clock_ns kernel + 60_000_000_000) (fun () -> not (K.alive p)));
  Option.value !reply ~default:"NONE"

(* Send one ctl command to [m] and drive the kernel until it answers. *)
let ctl kernel m cmd =
  let reply = ref None in
  Ctl.exec kernel ~path:(Manager.ctl_path m) cmd ~on_result:(fun r -> reply := Some r) ();
  ignore
    (K.run_until kernel ~max_ns:(K.clock_ns kernel + 10_000_000_000) (fun () -> !reply <> None));
  !reply

let stats_text kernel m =
  match ctl kernel m Frame.Stats with Some (Ok text) -> text | _ -> ""

let test_accessors () =
  let kernel, m = boot () in
  Alcotest.(check string) "version tag" "1.0" (Manager.version m).P.version_tag;
  Alcotest.(check string) "ctl path from program name" "/run/mcr/listing1.sock"
    (Manager.ctl_path m);
  Alcotest.(check bool) "root alive" true (K.alive (Manager.root_proc m));
  Alcotest.(check int) "one image" 1 (List.length (Manager.images m));
  Alcotest.(check bool) "kernel accessor" true (Manager.kernel m == kernel);
  Alcotest.(check bool) "no pending request initially" false (Manager.update_requested m)

let test_update_requested_lifecycle () =
  let kernel, m = boot () in
  Ctl.exec kernel ~path:(Manager.ctl_path m) Frame.Update ~on_result:(fun _ -> ()) ();
  ignore
    (K.run_until kernel
       ~max_ns:(K.clock_ns kernel + 10_000_000_000)
       (fun () -> Manager.update_requested m));
  Alcotest.(check bool) "request observed" true (Manager.update_requested m);
  let _m2, report = Manager.update m (Listing1.v2 ()) in
  Alcotest.(check bool) "update ok" true report.Manager.success;
  Alcotest.(check bool) "request cleared by the reply" false (Manager.update_requested m)

let test_prefixed_commands_refused () =
  (* regression: commands used to be matched by prefix, so UPDATEX started
     a live update and STATSfoo answered with stats *)
  let kernel, m = boot () in
  List.iter
    (fun command ->
      let reply = ref None in
      Ctl.request_v kernel ~path:(Manager.ctl_path m) ~command
        ~on_result:(fun r -> reply := Some r)
        ();
      ignore
        (K.run_until kernel
           ~max_ns:(K.clock_ns kernel + 10_000_000_000)
           (fun () -> !reply <> None || Manager.update_requested m));
      Alcotest.(check bool) (command ^ " refused as unknown") true
        (!reply = Some (Error (Ctl.Refused "unknown command")));
      Alcotest.(check bool) (command ^ " requests no update") false
        (Manager.update_requested m))
    [ "UPDATEX"; "STATSfoo"; "EXPLAINX" ]

let test_trace_statistics_read_only () =
  (* taking Table 2 statistics must not disturb service or state *)
  let kernel, m = boot () in
  Alcotest.(check string) "r1" "hi/v1:1" (request kernel);
  let s1 = Manager.trace_statistics m in
  let s2 = Manager.trace_statistics m in
  Alcotest.(check int) "repeatable" s1.Mcr_trace.Objgraph.precise.Mcr_trace.Objgraph.ptr
    s2.Mcr_trace.Objgraph.precise.Mcr_trace.Objgraph.ptr;
  Alcotest.(check string) "service unaffected" "hi/v1:2" (request kernel);
  (* and the program can still be updated afterwards *)
  let _m2, report = Manager.update m (Listing1.v2 ()) in
  Alcotest.(check bool) "update still ok" true report.Manager.success

let test_memory_stats_shape () =
  let kernel, m = boot () in
  ignore (request kernel);
  let ms = Manager.memory_stats m in
  Alcotest.(check bool) "app bytes positive" true (ms.Manager.app_bytes > 0);
  Alcotest.(check bool) "mcr bytes positive (instrumented)" true (ms.Manager.mcr_bytes > 0);
  Alcotest.(check int) "resident = app + mcr" ms.Manager.resident_bytes
    (ms.Manager.app_bytes + ms.Manager.mcr_bytes);
  Alcotest.(check int) "one process" 1 ms.Manager.processes;
  (* the baseline build models no MCR footprint *)
  let kernel2 = K.create () in
  K.fs_write kernel2 ~path:Listing1.config_path "welcome=hi";
  let mb = Manager.launch kernel2 ~instr:Mcr_program.Instr.baseline (Listing1.v1 ()) in
  ignore (K.run_until kernel2 ~max_ns:(K.clock_ns kernel2 + 100_000_000) (fun () -> false));
  Alcotest.(check int) "baseline mcr bytes" 0 (Manager.memory_stats mb).Manager.mcr_bytes

let test_quiesce_only_repeatable () =
  let kernel, m = boot () in
  ignore (request kernel);
  for i = 1 to 3 do
    match Manager.quiesce_only m with
    | Some ns ->
        Alcotest.(check bool) (Printf.sprintf "round %d bounded" i) true (ns < 100_000_000)
    | None -> Alcotest.failf "round %d did not converge" i
  done;
  Alcotest.(check string) "still serving" "hi/v1:2" (request kernel)

let test_images_track_children () =
  let kernel = K.create () in
  let m = Testbed.launch kernel Testbed.Httpd in
  Alcotest.(check int) "master + servers"
    (1 + Mcr_servers.Httpd_sim.servers)
    (List.length (Manager.images m));
  (* killed children drop out of the image list *)
  let child =
    List.find (fun (im : P.image) -> K.parent_pid im.P.i_proc <> 0) (Manager.images m)
  in
  K.kill_process kernel child.P.i_proc ~status:1;
  Alcotest.(check int) "dead child excluded"
    (Mcr_servers.Httpd_sim.servers)
    (List.length (Manager.images m))

(* main completes startup at its first wrapped wait, forks a child that
   exits with status 7 at once, sleeps, then reaps the child. *)
let reaper reaped =
  let open Mcr_program in
  P.make_version ~prog:"reaper" ~version_tag:"1" ~layout_bias:0
    ~tyenv:(Mcr_types.Ty.env_create ()) ~globals:[] ~funcs:[ "main" ] ~strings:[]
    ~qpoints:[ ("start", "sem_wait") ]
    ~entries:
      [
        ( "main",
          fun t ->
            ignore
              (Api.blocking t ~qpoint:"start"
                 (S.Sem_wait { name = "start"; timeout_ns = Some 1_000_000 }));
            match Api.sys t (S.Fork { entry = "child" }) with
            | S.Ok_pid pid ->
                ignore (Api.sys t (S.Nanosleep { ns = 5_000_000 }));
                reaped := Some (Api.sys t (S.Waitpid { pid }));
                ignore (Api.sys t (S.Sem_wait { name = "never"; timeout_ns = None }))
            | _ -> () );
        ("child", fun t -> Api.exit t 7);
      ]
    ()

let test_exited_child_drops_image () =
  let reaped = ref None in
  let kernel = K.create () in
  let m = Manager.launch kernel (reaper reaped) in
  assert (Manager.wait_startup m ());
  let child () =
    List.find_opt (fun p -> K.proc_name p = "reaper:child") (K.procs kernel)
  in
  ignore
    (K.run_until kernel
       ~max_ns:(K.clock_ns kernel + 1_000_000_000)
       (fun () -> match child () with Some c -> not (K.alive c) | None -> false));
  let c = Option.get (child ()) in
  Alcotest.(check (option int)) "exit status kept" (Some 7) (K.exit_status c);
  Alcotest.(check bool) "image dropped at exit" true (P.image_of_proc c = None);
  Alcotest.(check bool) "not reaped yet" true (!reaped = None);
  let before = Manager.memory_stats m in
  ignore
    (K.run_until kernel
       ~max_ns:(K.clock_ns kernel + 1_000_000_000)
       (fun () -> !reaped <> None));
  Alcotest.(check bool) "Waitpid reaps the child" true (!reaped = Some (S.Ok_status 7));
  Alcotest.(check bool) "memory stats unchanged" true (Manager.memory_stats m = before);
  Alcotest.(check int) "only the parent counted" 1 before.Manager.processes

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_stats_command () =
  let kernel, m = boot () in
  ignore (request kernel);
  (* before any update: counters registered, zero updates *)
  let text = stats_text kernel m in
  Alcotest.(check bool) "reply mentions update counter" true
    (contains text "mcr_updates_total");
  Alcotest.(check bool) "reply mentions process gauge" true
    (contains text "mcr_processes");
  (* after an update the snapshot reflects the committed update, and the new
     manager's controller serves STATS on the same socket *)
  let m2, r = Manager.update m (Listing1.v2 ()) in
  Alcotest.(check bool) "update ok" true r.Manager.success;
  let snap = r.Manager.metrics in
  Alcotest.(check (option int)) "updates counted"
    (Some 1)
    (List.assoc_opt "mcr_updates_total" snap.Mcr_obs.Metrics.counters);
  Alcotest.(check (option int)) "commit counted"
    (Some 1)
    (List.assoc_opt "mcr_update_commits_total" snap.Mcr_obs.Metrics.counters);
  Alcotest.(check bool) "post-update STATS served" true
    (contains (stats_text kernel m2) "mcr_update_commits_total")

let test_report_totals_consistent () =
  let kernel, m = boot () in
  ignore (request kernel);
  let _m2, r = Manager.update m (Listing1.v2 ()) in
  Alcotest.(check bool) "ok" true r.Manager.success;
  Alcotest.(check bool) "phases sum within total" true
    (r.Manager.quiesce_ns + r.Manager.control_migration_ns + r.Manager.state_transfer_ns
    <= r.Manager.total_ns);
  Alcotest.(check bool) "phases nonnegative" true
    (r.Manager.quiesce_ns >= 0
    && r.Manager.control_migration_ns >= 0
    && r.Manager.state_transfer_ns >= 0)

(* --- Soft-dirty incremental transfer: back-to-back updates ------------- *)

module Transfer = Mcr_trace.Transfer
module Policy = Mcr_core.Policy
module Flight = Mcr_obs.Flight

let sum_outcome f (r : Manager.report) =
  List.fold_left (fun acc (_, o) -> acc + f o) 0 r.Manager.transfers

(* Words that actually moved: transferred minus the portion later remapped
   into shared frames. This is the number that must track real mutations. *)
let copied_words r =
  sum_outcome (fun (o : Transfer.outcome) -> o.Transfer.transferred_words - o.Transfer.remapped_words) r

let back_to_back ~traffic_between () =
  let kernel = K.create () in
  let m = Testbed.launch kernel Testbed.Vsftpd in
  Manager.set_policy m (Policy.with_transfer_remap true (Manager.policy m));
  ignore (Testbed.benchmark kernel Testbed.Vsftpd ~scale:20 ());
  let m2, r1 = Manager.update m (Testbed.final_version Testbed.Vsftpd) in
  Alcotest.(check bool) "first update commits" true r1.Manager.success;
  if traffic_between then ignore (Testbed.benchmark kernel Testbed.Vsftpd ~scale:20 ());
  let m3, r2 = Manager.update m2 (Testbed.final_version Testbed.Vsftpd) in
  Alcotest.(check bool) "second update commits" true r2.Manager.success;
  (m3, r1, r2)

let test_back_to_back_reflects_mutations () =
  (* satellite regression: an update's own stores must not pollute the new
     image's dirty tracking, so an immediate second update pays only for
     genuinely mutated pages — the rest remap as shared frames. *)
  let m3, r1, r2_quiet = back_to_back ~traffic_between:false () in
  let transferred2 = sum_outcome (fun o -> o.Transfer.transferred_words) r2_quiet in
  let remapped2 = sum_outcome (fun o -> o.Transfer.remapped_words) r2_quiet in
  Alcotest.(check bool) "second update remaps pages" true (remapped2 > 0);
  Alcotest.(check bool)
    (Printf.sprintf "copied words are the mutation residue (%d copied of %d transferred)"
       (transferred2 - remapped2) transferred2)
    true
    ((transferred2 - remapped2) * 2 < transferred2);
  Alcotest.(check bool)
    (Printf.sprintf "self-update copies no more than cross-version (%d vs %d)"
       (copied_words r2_quiet) (copied_words r1))
    true
    (copied_words r2_quiet <= copied_words r1);
  (* no shared frame outlives the update window *)
  List.iter
    (fun (im : P.image) ->
      Alcotest.(check int) "no shared frames after commit" 0
        (Aspace.shared_frame_count im.P.i_aspace))
    (Manager.images m3);
  (* the flight record and metrics carry the same counters *)
  Alcotest.(check int) "flight remapped_words" remapped2 r2_quiet.Manager.flight.Flight.f_remapped_words;
  Alcotest.(check bool) "remap metric counted" true
    (match
       List.assoc_opt "mcr_transfer_remapped_words_total"
         r2_quiet.Manager.metrics.Mcr_obs.Metrics.counters
     with
    | Some n -> n >= remapped2
    | None -> false);
  (* with real traffic between the updates, the copied residue grows *)
  let _, _, r2_busy = back_to_back ~traffic_between:true () in
  Alcotest.(check bool)
    (Printf.sprintf "intervening traffic raises copied words (%d quiet vs %d busy)"
       (copied_words r2_quiet) (copied_words r2_busy))
    true
    (copied_words r2_quiet <= copied_words r2_busy)

let test_remap_ctl_command () =
  let kernel, m = boot () in
  Alcotest.(check bool) "remap off by default" false (Manager.policy m).Policy.transfer_remap;
  Alcotest.(check bool) "remap on acknowledged" true
    (ctl kernel m (Frame.Policy "transfer_remap=true") = Some (Ok ""));
  Alcotest.(check bool) "policy flipped" true (Manager.policy m).Policy.transfer_remap;
  Alcotest.(check bool) "remap off acknowledged" true
    (ctl kernel m (Frame.Policy "transfer_remap=false") = Some (Ok ""));
  Alcotest.(check bool) "policy restored" false (Manager.policy m).Policy.transfer_remap;
  (* and the lineage still updates cleanly afterwards *)
  let _m2, r = Manager.update m (Listing1.v2 ()) in
  Alcotest.(check bool) "update ok" true r.Manager.success

let () =
  Alcotest.run "mcr_core"
    [
      ( "manager",
        [
          Alcotest.test_case "accessors" `Quick test_accessors;
          Alcotest.test_case "update_requested lifecycle" `Quick test_update_requested_lifecycle;
          Alcotest.test_case "prefixed commands refused" `Quick test_prefixed_commands_refused;
          Alcotest.test_case "trace stats read-only" `Quick test_trace_statistics_read_only;
          Alcotest.test_case "memory stats shape" `Quick test_memory_stats_shape;
          Alcotest.test_case "quiesce_only repeatable" `Quick test_quiesce_only_repeatable;
          Alcotest.test_case "images track children" `Quick test_images_track_children;
          Alcotest.test_case "exited child drops its image" `Quick test_exited_child_drops_image;
          Alcotest.test_case "STATS ctl command" `Quick test_stats_command;
          Alcotest.test_case "report totals" `Quick test_report_totals_consistent;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "back-to-back updates copy only mutations" `Quick
            test_back_to_back_reflects_mutations;
          Alcotest.test_case "REMAP ctl command" `Quick test_remap_ctl_command;
        ] );
    ]
