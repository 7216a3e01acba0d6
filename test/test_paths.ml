(* Every exit path of Manager.update, pinned against one golden file: three
   commits (single-shot, a 4-worker pool, pre-copy with request parking), a
   failure before restart (quiesce refusal under a deadline), six rollbacks
   (startup crash and hang, replay conflict, reinit hang, a transfer
   conflict under four workers, pre-copy divergence) and the refusal to
   update a manager whose program is gone. Per scenario the golden holds
   the stage-event lines of the trace, the flight record JSON, and a
   one-line digest of the report's scalar fields plus a hash of its
   metrics snapshot. On a mismatch the produced text is written to
   [update_paths.actual] next to the test binary. *)

module K = Mcr_simos.Kernel
module S = Mcr_simos.Sysdefs
module Manager = Mcr_core.Manager
module Policy = Mcr_core.Policy
module Fault = Mcr_fault.Fault
module Trace = Mcr_obs.Trace
module Flight = Mcr_obs.Flight
module Metrics = Mcr_obs.Metrics
module Testbed = Mcr_workloads.Testbed
module Listing1 = Mcr_servers.Listing1
module Aspace = Mcr_vmem.Aspace

let drive kernel pred =
  ignore (K.run_until kernel ~max_ns:(K.clock_ns kernel + 120_000_000_000) pred)

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

let new_trace kernel = Trace.create ~capacity:1_000_000 ~clock:(fun () -> K.clock_ns kernel) ()

let listing1 () =
  let kernel = K.create () in
  let trace = new_trace kernel in
  K.fs_write kernel ~path:Listing1.config_path "welcome=hi";
  let m = Manager.launch kernel ~trace (Listing1.v1 ()) in
  assert (Manager.wait_startup m ());
  ignore (rpc kernel ~port:Listing1.port "GET /");
  (kernel, trace, m)

let httpd () =
  let kernel = K.create () in
  let trace = new_trace kernel in
  let m = Testbed.launch ~trace kernel Testbed.Httpd in
  ignore (Testbed.benchmark kernel Testbed.Httpd ~scale:1000 ());
  (kernel, trace, m)

let stage_lines trace =
  List.filter_map
    (fun (e : Trace.event) ->
      if e.Trace.cat = "stage" then Some (Trace.phase_name e.Trace.phase ^ " " ^ e.Trace.name)
      else None)
    (Trace.events trace)

let digest (r : Manager.report) =
  Printf.sprintf
    "success=%b quiesce_ns=%d control_migration_ns=%d state_transfer_ns=%d total_ns=%d \
     downtime_ns=%d precopy_rounds=%d precopy_bytes=%d replayed_calls=%d live_calls=%d \
     replay_conflicts=%d transfer_conflicts=%d transfers=%d parked=%d resumed=%d aborted=%d \
     client_latency=%b metrics=%d failure=%s"
    r.Manager.success r.Manager.quiesce_ns r.Manager.control_migration_ns
    r.Manager.state_transfer_ns r.Manager.total_ns r.Manager.downtime_ns
    r.Manager.precopy_rounds r.Manager.precopy_bytes r.Manager.replayed_calls
    r.Manager.live_calls
    (List.length r.Manager.replay_conflicts)
    (List.length r.Manager.transfer_conflicts)
    (List.length r.Manager.transfers)
    r.Manager.parked_requests r.Manager.resumed_requests r.Manager.aborted_requests
    (r.Manager.client_latency <> None)
    (Mcr_util.Fnv.string (Metrics.render r.Manager.metrics))
    (Option.fold ~none:"-" ~some:Mcr_error.to_string r.Manager.failure)

let section name trace (r : Manager.report) =
  (("== " ^ name) :: stage_lines trace)
  @ [ "flight " ^ Flight.to_json r.Manager.flight; "report " ^ digest r ]

let update_with ?policy ?fault ?on_precopy_round setup version name =
  let _kernel, trace, m = setup () in
  let _, r = Manager.update m ?policy ?fault ?on_precopy_round version in
  section name trace r

let scenarios () =
  let l1v2 = Listing1.v2 () and httpd_v = Testbed.final_version Testbed.Httpd in
  let w4 = Policy.with_transfer_workers 4 Policy.default in
  let precopy_parking =
    Policy.default |> Policy.with_precopy true |> Policy.with_request_parking true
  in
  let diverging = Policy.with_precopy ~max_rounds:2 ~threshold_words:0 true Policy.default in
  let quiesce_deadline = Policy.with_quiesce_deadline_ns (Some 500_000_000) Policy.default in
  let fault p = Fault.script [ p ] in
  List.concat
    [
      update_with listing1 l1v2 "commit single-shot";
      update_with ~policy:w4 httpd httpd_v "commit W=4";
      update_with ~policy:precopy_parking listing1 l1v2 "commit precopy+parking";
      update_with ~policy:quiesce_deadline ~fault:(fault Fault.Quiesce_refusal) listing1 l1v2
        "fail-before-restart quiesce-refusal";
      update_with ~fault:(fault Fault.Startup_crash) listing1 l1v2 "rollback startup-crash";
      update_with ~fault:(fault Fault.Startup_hang) listing1 l1v2 "rollback startup-hang";
      update_with ~fault:(fault Fault.Replay_conflict) listing1 l1v2 "rollback replay-conflict";
      update_with ~fault:(fault Fault.Reinit_hang) listing1 l1v2 "rollback reinit-hang";
      update_with ~policy:w4 ~fault:(fault Fault.Transfer_conflict) httpd httpd_v
        "rollback transfer-conflict W=4";
      (let kernel, trace, m = listing1 () in
       let _, r =
         Manager.update m ~policy:diverging
           ~on_precopy_round:(fun _ -> ignore (rpc kernel ~port:Listing1.port "GET /"))
           l1v2
       in
       section "rollback precopy-diverged" trace r);
      (let _kernel, trace, m = listing1 () in
       let _, first = Manager.update m l1v2 in
       assert first.Manager.success;
       Trace.clear trace;
       let _, r = Manager.update m l1v2 in
       section "program-not-running" trace r);
    ]

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let test_update_paths_golden () =
  let actual = scenarios () in
  let expected = read_lines "golden/update_paths.golden" in
  if actual <> expected then begin
    let oc = open_out "update_paths.actual" in
    List.iter (fun l -> output_string oc (l ^ "\n")) actual;
    close_out oc
  end;
  Alcotest.(check (list string)) "every exit path matches the golden" expected actual

let () =
  Alcotest.run "update_paths"
    [ ("paths", [ Alcotest.test_case "update paths golden" `Quick test_update_paths_golden ]) ]
