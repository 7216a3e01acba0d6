(* The rollback guarantee, proved by fault injection: every injection point
   in lib/fault, driven both deterministically (one test per rollback
   reason, pinning the exact reason string, the trace event and the
   per-reason metric) and property-based (seeded single-fault plans across
   all four evaluated servers: after any injected failure the old version
   still serves, its memory is byte-identical, no new-version process or
   descriptor leaks, and a subsequent clean update commits). *)

module K = Mcr_simos.Kernel
module S = Mcr_simos.Sysdefs
module P = Mcr_program.Progdef
module Manager = Mcr_core.Manager
module Policy = Mcr_core.Policy
module Ctl = Mcr_core.Ctl
module Fault = Mcr_fault.Fault
module Trace = Mcr_obs.Trace
module Metrics = Mcr_obs.Metrics
module Testbed = Mcr_workloads.Testbed
module Listing1 = Mcr_servers.Listing1
module Aspace = Mcr_vmem.Aspace
module Addr = Mcr_vmem.Addr

let drive kernel pred =
  ignore (K.run_until kernel ~max_ns:(K.clock_ns kernel + 120_000_000_000) pred)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let rpc kernel ~port data =
  let reply = ref None in
  let p =
    K.spawn_process kernel ~image:(K.Fresh_image (Aspace.create ())) ~name:"rpc" ~entry:"main"
      ~main:(fun _ ->
        let rec connect n =
          match K.syscall (S.Connect { port }) with
          | S.Ok_fd fd -> Some fd
          | S.Err S.ECONNREFUSED when n > 0 ->
              ignore (K.syscall (S.Nanosleep { ns = 1_000_000 }));
              connect (n - 1)
          | _ -> None
        in
        match connect 100 with
        | None -> reply := Some "NOCONN"
        | Some fd -> (
            ignore (K.syscall (S.Write { fd; data }));
            match K.syscall (S.Read { fd; max = 65536; nonblock = false }) with
            | S.Ok_data d -> reply := Some d
            | _ -> reply := Some "NOREAD"))
      ()
  in
  drive kernel (fun () -> not (K.alive p));
  Option.value !reply ~default:"NONE"

let launch_listing1 ?trace kernel =
  K.fs_write kernel ~path:Listing1.config_path "welcome=hi";
  let m = Manager.launch kernel ?trace (Listing1.v1 ()) in
  assert (Manager.wait_startup m ());
  ignore (rpc kernel ~port:Listing1.port "GET /");
  m

(* One faulted update against Listing1, returning the rollback reason. *)
let faulted_reason ?quiesce_deadline_ns ?update_deadline_ns fault =
  let kernel = K.create () in
  let m = launch_listing1 kernel in
  let policy =
    Policy.default
    |> Policy.with_deadlines ~quiesce_ns:quiesce_deadline_ns ~update_ns:update_deadline_ns
  in
  let m2, report = Manager.update m ~policy ~fault (Listing1.v2 ()) in
  Alcotest.(check bool) "rolled back" false report.Manager.success;
  Alcotest.(check bool) "same manager" true (m == m2);
  (* the guarantee: the old version still serves, with its state intact *)
  let r = rpc kernel ~port:Listing1.port "GET /" in
  Alcotest.(check bool) "old version serves after rollback" true (contains r "v1:2");
  (* and a subsequent clean update commits *)
  let _, clean = Manager.update m2 (Listing1.v2 ()) in
  Alcotest.(check bool) "clean update succeeds afterwards" true clean.Manager.success;
  Option.fold ~none:"<none>" ~some:Mcr_error.to_string report.Manager.failure

(* ------------------------------------------------------------------ *)
(* One test per rollback reason *)

let test_quiesce_deadline () =
  (* the acceptance scenario: a thread that refuses to quiesce used to hang
     the update inside the 5 s budget and fail with a generic convergence
     error; with a deadline it is a first-class, observable rollback *)
  let kernel = K.create () in
  let trace = Trace.create ~clock:(fun () -> K.clock_ns kernel) () in
  let m = launch_listing1 ~trace kernel in
  let before = K.clock_ns kernel in
  let m2, report =
    Manager.update m
      ~policy:(Policy.with_quiesce_deadline_ns (Some 500_000_000) Policy.default)
      ~fault:(Fault.script [ Fault.Quiesce_refusal ])
      (Listing1.v2 ())
  in
  Alcotest.(check bool) "rolled back" false report.Manager.success;
  Alcotest.(check (option string)) "exact reason" (Some "quiescence deadline exceeded")
    (Option.map Mcr_error.to_string report.Manager.failure);
  (* the deadline actually fired: the update took ~the deadline, not the 5 s
     convergence budget *)
  Alcotest.(check bool) "deadline bounded the stage" true
    (K.clock_ns kernel - before < 2_000_000_000);
  (* observable in the trace ... *)
  let fail_events =
    List.filter (fun (e : Trace.event) -> e.Trace.name = "update.fail") (Trace.events trace)
  in
  Alcotest.(check int) "one update.fail instant" 1 (List.length fail_events);
  Alcotest.(check (option string)) "trace carries the reason"
    (Some "quiescence deadline exceeded")
    (List.assoc_opt "reason" (List.hd fail_events).Trace.args);
  Alcotest.(check bool) "fault.inject instant traced" true
    (List.exists
       (fun (e : Trace.event) -> e.Trace.name = "fault.inject" && e.Trace.cat = "fault")
       (Trace.events trace));
  (* ... and in the metrics snapshot attached to the report *)
  Alcotest.(check (option int)) "per-reason counter" (Some 1)
    (Metrics.find_counter report.Manager.metrics
       "mcr_rollback_reason_quiescence_deadline_exceeded_total");
  Alcotest.(check (option int)) "rollbacks counter" (Some 1)
    (Metrics.find_counter report.Manager.metrics "mcr_update_rollbacks_total");
  (* the old version serves and the next update is clean *)
  let r = rpc kernel ~port:Listing1.port "GET /" in
  Alcotest.(check bool) "old version serves" true (contains r "v1:2");
  let _, clean = Manager.update m2 (Listing1.v2 ()) in
  Alcotest.(check bool) "clean update succeeds afterwards" true clean.Manager.success

let test_refusal_without_deadline_is_legacy_reason () =
  (* no deadline set: the built-in budget still expires eventually and the
     pre-existing reason string is preserved *)
  Alcotest.(check string) "legacy reason" "quiescence did not converge"
    (faulted_reason (Fault.script [ Fault.Quiesce_refusal ]))

let test_update_deadline_during_quiesce () =
  Alcotest.(check string) "whole-update deadline wins" "update deadline exceeded"
    (faulted_reason ~quiesce_deadline_ns:2_000_000_000 ~update_deadline_ns:400_000_000
       (Fault.script [ Fault.Quiesce_refusal ]))

let test_replay_conflict () =
  Alcotest.(check string) "reinit conflict reason" "mutable reinitialization conflict"
    (faulted_reason (Fault.script [ Fault.Replay_conflict ]))

let test_startup_crash () =
  Alcotest.(check string) "crash reason" "new version crashed during startup"
    (faulted_reason (Fault.script [ Fault.Startup_crash ]))

let test_startup_hang () =
  Alcotest.(check string) "startup hang reason"
    "new version did not reach a quiescent startup"
    (faulted_reason (Fault.script [ Fault.Startup_hang ]))

let test_reinit_hang () =
  Alcotest.(check string) "reinit hang reason" "reinit handlers did not quiesce"
    (faulted_reason (Fault.script [ Fault.Reinit_hang ]))

let test_transfer_conflict () =
  Alcotest.(check string) "transfer conflict reason" "mutable tracing conflict"
    (faulted_reason (Fault.script [ Fault.Transfer_conflict ]))

let test_likely_misclassification () =
  (* the injected spurious likely pointer pins a relocatable object; the
     transfer must conflict on it rather than silently move it *)
  let kernel = K.create () in
  let m = launch_listing1 kernel in
  let fault = Fault.script [ Fault.Likely_misclassification ] in
  let _, report = Manager.update m ~fault (Listing1.v2 ()) in
  Alcotest.(check bool) "rolled back" false report.Manager.success;
  Alcotest.(check (option string)) "tracing conflict" (Some "mutable tracing conflict")
    (Option.map Mcr_error.to_string report.Manager.failure);
  Alcotest.(check bool) "conflict names the injected pin" true
    (List.exists
       (fun c ->
         contains (Format.asprintf "%a" Mcr_trace.Transfer.pp_conflict c) "injected")
       report.Manager.transfer_conflicts);
  let r = rpc kernel ~port:Listing1.port "GET /" in
  Alcotest.(check bool) "old version serves" true (contains r "v1:2")

let test_retry_recovers_from_transient_fault () =
  (* the plan is shared across attempts: attempt 1 consumes the injected
     conflict and rolls back, attempt 2 runs clean and commits *)
  let kernel = K.create () in
  let m = launch_listing1 kernel in
  let fault = Fault.script [ Fault.Replay_conflict ] in
  let policy = Policy.with_retries ~backoff_ns:10_000_000 2 Policy.default in
  let _, report = Manager.update m ~policy ~fault (Listing1.v2 ()) in
  Alcotest.(check bool) "retry commits" true report.Manager.success;
  Alcotest.(check bool) "fault did fire on the way" true
    (List.mem "replay_conflict" (Fault.fired fault));
  Alcotest.(check (option int)) "retry counted" (Some 1)
    (Metrics.find_counter report.Manager.metrics "mcr_update_retries_total");
  Alcotest.(check (option int)) "one rollback behind the commit" (Some 1)
    (Metrics.find_counter report.Manager.metrics "mcr_update_rollbacks_total");
  let r = rpc kernel ~port:Listing1.port "GET /" in
  Alcotest.(check bool) "new version serves" true (contains r "v2:2")

let test_policy_over_ctl () =
  (* deadlines/retry/fault knobs are settable over the control socket with
     POLICY and picked up by the next update *)
  let kernel = K.create () in
  let m = launch_listing1 kernel in
  let path = Manager.ctl_path m in
  let ask_raw command =
    let reply = ref None in
    Ctl.request_v kernel ~path ~command ~on_result:(fun r -> reply := Some r) ();
    drive kernel (fun () -> !reply <> None);
    !reply
  in
  let ask kv = ask_raw (Ctl.Frame.command_to_string (Ctl.Frame.Policy kv)) in
  let ok = Some (Ok "") in
  Alcotest.(check bool) "deadline ok" true (ask "quiesce_deadline_ns=400000000" = ok);
  Alcotest.(check bool) "retry ok" true (ask "retries=0 retry_backoff_ns=1000000" = ok);
  Alcotest.(check bool) "fault disarm ok" true (ask "fault_seed=-" = ok);
  let p = Manager.policy m in
  Alcotest.(check (option int)) "deadline set" (Some 400_000_000) p.Policy.quiesce_deadline_ns;
  Alcotest.(check int) "backoff set" 1_000_000 p.Policy.retry_backoff_ns;
  (* a value Policy.of_kv refuses answers ERR naming its key and changes
     nothing, not even the valid keys beside it *)
  (match ask "retries=2 retry_backoff_ns=-1" with
  | Some (Error (Ctl.Refused r)) ->
      Alcotest.(check bool) ("refusal names the key: " ^ r) true (contains r "retry_backoff_ns")
  | _ -> Alcotest.fail "negative backoff accepted");
  Alcotest.(check bool) "policy unchanged on refusal" true (Manager.policy m = p);
  (* the grammar refuses what is not a POLICY key=value list *)
  List.iter
    (fun command ->
      Alcotest.(check bool) (command ^ " refused") true
        (match ask_raw command with
        | Some (Error (Ctl.Refused r)) -> contains r "usage: POLICY"
        | _ -> false))
    [ "POLICY transfer_worker=3"; "POLICY image_dir=/x"; "POLICY retries"; "POLICY" ];
  Alcotest.(check bool) "policy unchanged by refused commands" true (Manager.policy m = p);
  (* the per-knob verbs are gone *)
  List.iter
    (fun command ->
      Alcotest.(check bool) (command ^ " unknown") true
        (ask_raw command = Some (Error (Ctl.Refused "unknown command"))))
    [
      "DEADLINES 400000000 -";
      "RETRY 0 1000000";
      "FAULT OFF";
      "PRECOPY ON";
      "WORKERS 3";
      "REMAP ON";
      "SLO - -";
      "PARKING ON";
    ];
  Alcotest.(check bool) "FLEET refused by a manager" true
    (ask_raw (Ctl.Frame.command_to_string (Ctl.Frame.Fleet Ctl.Frame.Status))
    = Some (Error (Ctl.Refused "unknown command")));
  (* the policy deadline applies without per-call arguments *)
  let m2, report =
    Manager.update m ~fault:(Fault.script [ Fault.Quiesce_refusal ]) (Listing1.v2 ())
  in
  Alcotest.(check (option string)) "policy deadline applied"
    (Some "quiescence deadline exceeded")
    (Option.map Mcr_error.to_string report.Manager.failure);
  ignore m2

let test_stale_ctl_socket_relaunch () =
  (* regression: a crashed program leaves its control-socket file behind;
     relaunching used to die with EADDRINUSE inside the controller *)
  let kernel = K.create () in
  K.fs_write kernel ~path:Listing1.config_path "welcome=hi";
  let m = Manager.launch kernel (Listing1.v1 ()) in
  assert (Manager.wait_startup m ());
  let path = Manager.ctl_path m in
  List.iter
    (fun (im : P.image) -> if K.alive im.P.i_proc then K.kill_process kernel im.P.i_proc ~status:137)
    (Manager.images m);
  drive kernel (fun () -> K.quiescent_system kernel);
  (* the socket file is still there (unclean exit) *)
  let m2 = Manager.launch kernel (Listing1.v1 ()) in
  Alcotest.(check string) "same ctl path" path (Manager.ctl_path m2);
  assert (Manager.wait_startup m2 ());
  let reply = ref None in
  Ctl.exec kernel ~path Ctl.Frame.Stats ~on_result:(fun r -> reply := Some r) ();
  drive kernel (fun () -> !reply <> None);
  match !reply with
  | Some (Ok r) ->
      Alcotest.(check bool) "relaunched controller answers STATS" true
        (contains r "mcr_updates_total")
  | _ -> Alcotest.fail "no STATS reply after relaunch"

let test_syscall_fault_invariant () =
  (* ENOSPC/ECONNRESET analogs during new-version startup: whatever the
     outcome, the atomic invariant holds *)
  List.iter
    (fun (call, err) ->
      let kernel = K.create () in
      let m = launch_listing1 kernel in
      let fault = Fault.script [ Fault.Syscall_failure { call; err; after = 0 } ] in
      let m2, report = Manager.update m ~fault (Listing1.v2 ()) in
      if report.Manager.success then begin
        let r = rpc kernel ~port:Listing1.port "GET /" in
        Alcotest.(check bool)
          (Printf.sprintf "%s fault: new version serves" call)
          true (contains r "v2:2");
        ignore m2
      end
      else begin
        Alcotest.(check bool)
          (Printf.sprintf "%s fault: same manager" call)
          true (m == m2);
        let r = rpc kernel ~port:Listing1.port "GET /" in
        Alcotest.(check bool)
          (Printf.sprintf "%s fault: old version serves" call)
          true (contains r "v1:2")
      end)
    [ ("open_at", S.ENOSPC); ("write", S.ENOSPC); ("read", S.ECONNRESET);
      ("accept", S.ECONNRESET) ]

(* ------------------------------------------------------------------ *)
(* The property: seeded faults across all four servers *)

(* Byte-identity digest of an address space: every mapped word of every
   region folded into a polynomial hash. *)
let aspace_digest asp =
  List.fold_left
    (fun h (r : Mcr_vmem.Region.t) ->
      let words = r.Mcr_vmem.Region.size / Addr.word_size in
      let rec go h i =
        if i >= words then h
        else
          let a = Addr.add_words r.Mcr_vmem.Region.base i in
          let h =
            if Aspace.is_mapped_word asp a then (h * 1_000_003) + Aspace.read_word asp a
            else h * 31
          in
          go h (i + 1)
      in
      go h 0)
    17 (Aspace.regions asp)

let alive_pids kernel =
  List.filter_map (fun p -> if K.alive p then Some (K.pid p) else None) (K.procs kernel)
  |> List.sort compare

let prop_rollback_guarantee =
  let servers = Array.of_list Testbed.all in
  QCheck.Test.make ~name:"injected faults never break the old version" ~count:112
    QCheck.(pair (int_range 0 (Array.length servers - 1)) (int_range 0 1_000_000))
    (fun (si, seed) ->
      let server = servers.(si) in
      let kernel = K.create () in
      let m = Testbed.launch kernel server in
      let old_root = Manager.root_proc m in
      let old_image = Manager.root_image m in
      let pre_digest = aspace_digest old_image.P.i_aspace in
      let pre_pids = alive_pids kernel in
      let pre_fds = K.fds old_root in
      let fault = Fault.of_seed seed in
      let m2, report =
        Manager.update m
          ~policy:
            (Policy.with_deadlines ~quiesce_ns:(Some 3_000_000_000)
               ~update_ns:(Some 15_000_000_000) Policy.default)
          ~fault
          (Testbed.final_version server)
      in
      if report.Manager.success then
        (* faults can be absorbed (e.g. a result map masks an injected
           syscall error, or the faulted call never runs): then the update
           must have fully committed *)
        K.alive (Manager.root_proc m2)
      else begin
        (* rollback: old version intact — byte-identical memory, same
           processes, same descriptors, nothing leaked *)
        let ok_alive = K.alive old_root in
        let ok_digest = aspace_digest old_image.P.i_aspace = pre_digest in
        let ok_fds = K.fds old_root = pre_fds in
        let post_pids = alive_pids kernel in
        let ok_no_leak = List.for_all (fun p -> List.mem p pre_pids) post_pids in
        (* and the failure is recoverable: a clean update commits *)
        let _, clean = Manager.update m2 (Testbed.final_version server) in
        if not (ok_alive && ok_digest && ok_fds && ok_no_leak && clean.Manager.success)
        then
          QCheck.Test.fail_reportf
            "server=%s seed=%d reason=%s alive=%b digest=%b fds=%b leak=%b clean=%b"
            (Testbed.name server) seed
            (Option.fold ~none:"<none>" ~some:Mcr_error.to_string report.Manager.failure)
            ok_alive ok_digest ok_fds (not ok_no_leak) clean.Manager.success
        else true
      end)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "mcr_fault"
    [
      ( "reasons",
        [
          Alcotest.test_case "quiescence deadline exceeded" `Quick test_quiesce_deadline;
          Alcotest.test_case "refusal without deadline keeps legacy reason" `Slow
            test_refusal_without_deadline_is_legacy_reason;
          Alcotest.test_case "update deadline exceeded" `Quick
            test_update_deadline_during_quiesce;
          Alcotest.test_case "mutable reinitialization conflict" `Quick test_replay_conflict;
          Alcotest.test_case "new version crashed during startup" `Quick test_startup_crash;
          Alcotest.test_case "non-quiescent startup" `Quick test_startup_hang;
          Alcotest.test_case "reinit handlers did not quiesce" `Quick test_reinit_hang;
          Alcotest.test_case "mutable tracing conflict" `Quick test_transfer_conflict;
          Alcotest.test_case "likely-pointer misclassification" `Quick
            test_likely_misclassification;
          Alcotest.test_case "syscall faults keep the invariant" `Quick
            test_syscall_fault_invariant;
        ] );
      ( "policy",
        [
          Alcotest.test_case "retry recovers from transient fault" `Quick
            test_retry_recovers_from_transient_fault;
          Alcotest.test_case "knobs over the control socket" `Quick test_policy_over_ctl;
          Alcotest.test_case "stale ctl socket relaunch" `Quick test_stale_ctl_socket_relaunch;
        ] );
      ("property", [ qt prop_rollback_guarantee ]);
    ]
