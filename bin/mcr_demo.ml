(* mcr-demo: run a simulated MCR-enabled server, put it under load, and
   drive a live update through the mcr-ctl control socket — the end-to-end
   workflow of Figure 1 in one command. With --fleet N the same server
   runs as N instances behind the simulated balancer and the update
   becomes a canary-gated rolling rollout driven through FLEET ROLLOUT.

     dune exec bin/mcr_demo.exe -- --server nginx --requests 200 --conns 10
     dune exec bin/mcr_demo.exe -- --server httpd --fail  # rollback demo
     dune exec bin/mcr_demo.exe -- --fault-seed 7 --quiesce-deadline-ms 500
     dune exec bin/mcr_demo.exe -- --fleet 16 --canary 2 --wave 4
     dune exec bin/mcr_demo.exe -- --fleet 8 --fault-seed 3 --halt rollback_updated *)

module K = Mcr_simos.Kernel
module Manager = Mcr_core.Manager
module Ctl = Mcr_core.Ctl
module Testbed = Mcr_workloads.Testbed
module Holders = Mcr_workloads.Holders
module Fleet = Mcr_fleet.Fleet
module Fleet_policy = Mcr_fleet.Fleet_policy
module Rollout = Mcr_fleet.Rollout

let server_of_string = function
  | "nginx" -> Ok Testbed.Nginx
  | "httpd" -> Ok Testbed.Httpd
  | "vsftpd" -> Ok Testbed.Vsftpd
  | "sshd" -> Ok Testbed.Sshd
  | s -> Error (`Msg ("unknown server " ^ s ^ " (nginx|httpd|vsftpd|sshd)"))

(* The fleet path: N instances, one FLEET ROLLOUT over the fleet socket,
   then the rollout post-mortem. A seeded fault arms the canary
   (instance 0), so the demo shows the halt gate and — under
   rollback_updated — the fleet-wide revert. *)
let run_fleet server n canary wave max_unavailable halt fault_seed =
  let pol =
    Fleet_policy.default
    |> Fleet_policy.with_canary canary
    |> Fleet_policy.with_wave wave
    |> Fleet_policy.with_max_unavailable max_unavailable
    |> Fleet_policy.with_halt halt
  in
  let pol =
    match fault_seed with
    | Some seed -> Fleet_policy.with_fault ~seed:(Some seed) ~instances:[ 0 ] pol
    | None -> pol
  in
  Printf.printf "launching a fleet of %d %s instance(s) behind the balancer...\n%!" n
    (Testbed.name server);
  let fleet = Fleet.of_testbed ~policy:pol server ~n in
  Printf.printf "  fleet control socket %s\n" (Fleet.ctl_path fleet);
  print_string (Fleet.status_text fleet);
  Printf.printf "requesting FLEET ROLLOUT over the control socket...\n%!";
  match Rollout.request_over_ctl fleet with
  | Error e ->
      Printf.printf "  rollout failed: %s\n" e;
      exit 1
  | Ok summary ->
      print_newline ();
      print_string (Mcr_obs.Postmortem.render_fleet summary);
      print_newline ();
      print_string (Fleet.status_text fleet);
      (* an unprovoked halt is a real failure; a seeded one is the demo *)
      if summary.Mcr_obs.Fleet_flight.fs_halted && fault_seed = None then exit 1

let run_single server requests conns fail_update fault_seed quiesce_deadline_ms
    update_deadline_ms precopy transfer_workers =
  let kernel = K.create () in
  Printf.printf "launching %s (MCR-enabled, startup log recording)...\n%!"
    (Testbed.name server);
  let m = Testbed.launch kernel server in
  Printf.printf "  %d process(es) up; control socket %s\n"
    (List.length (Manager.images m)) (Manager.ctl_path m);
  Printf.printf "running workload (%d requests)...\n%!" requests;
  let r = Testbed.benchmark kernel server ~scale:(max 1 (100_000 / requests)) () in
  Format.printf "  %a@." Mcr_workloads.Bench_result.pp r;
  let holders =
    if conns > 0 then begin
      Printf.printf "opening %d long-lived connections...\n%!" conns;
      Some (Testbed.open_holders kernel server ~n:conns)
    end
    else None
  in
  let target =
    if fail_update && server = Testbed.Httpd then Mcr_servers.Httpd_sim.unprepared ()
    else Testbed.final_version server
  in
  Printf.printf "signalling live update via mcr-ctl (to %s %s)...\n%!"
    target.Mcr_program.Progdef.prog target.Mcr_program.Progdef.version_tag;
  let reply = ref None in
  Ctl.exec kernel ~path:(Manager.ctl_path m) Ctl.Frame.Update
    ~on_result:(fun r ->
      reply := Some (match r with Ok "" -> "OK" | Ok p -> p | Error e -> Format.asprintf "%a" Ctl.pp_error e))
    ();
  ignore
    (K.run_until kernel
       ~max_ns:(K.clock_ns kernel + 10_000_000_000)
       (fun () -> Manager.update_requested m));
  let fault =
    Option.map
      (fun seed ->
        let f = Mcr_fault.Fault.of_seed seed in
        List.iter
          (fun p -> Format.printf "  fault armed (seed %d): %a@." seed Mcr_fault.Fault.pp_point p)
          (Mcr_fault.Fault.armed f);
        f)
      fault_seed
  in
  let ns_of_ms = Option.map (fun ms -> ms * 1_000_000) in
  let policy =
    Mcr_core.Policy.default
    |> Mcr_core.Policy.with_deadlines
         ~quiesce_ns:(ns_of_ms quiesce_deadline_ms)
         ~update_ns:(ns_of_ms update_deadline_ms)
    |> Mcr_core.Policy.with_precopy precopy
    |> Mcr_core.Policy.with_transfer_workers (max 1 transfer_workers)
  in
  let m2, report = Manager.update m ~policy ?fault target in
  ignore
    (K.run_until kernel ~max_ns:(K.clock_ns kernel + 10_000_000_000) (fun () -> !reply <> None));
  Printf.printf "  mcr-ctl reply: %s\n" (Option.value !reply ~default:"(none)");
  let ms ns = float_of_int ns /. 1e6 in
  Printf.printf
    "  quiesce %.1f ms | control migration %.1f ms | state transfer %.1f ms | total %.1f ms\n"
    (ms report.Manager.quiesce_ns)
    (ms report.Manager.control_migration_ns)
    (ms report.Manager.state_transfer_ns)
    (ms report.Manager.total_ns);
  Printf.printf "  downtime %.1f ms (%d pre-copy round(s), %d bytes staged)\n"
    (ms report.Manager.downtime_ns)
    report.Manager.precopy_rounds report.Manager.precopy_bytes;
  Printf.printf "  replayed %d startup calls, %d live; %s\n" report.Manager.replayed_calls
    report.Manager.live_calls
    (if report.Manager.success then "COMMITTED" else "ROLLED BACK");
  (match report.Manager.failure with
  | Some f -> Printf.printf "  rollback cause: %s\n" (Mcr_error.to_string f)
  | None -> ());
  List.iter
    (fun c -> Format.printf "  replay conflict: %a@." Mcr_replay.Replayer.pp_conflict c)
    report.Manager.replay_conflicts;
  List.iter
    (fun c -> Format.printf "  tracing conflict: %a@." Mcr_trace.Transfer.pp_conflict c)
    report.Manager.transfer_conflicts;
  Printf.printf "running post-update workload (version now %s)...\n%!"
    (Manager.version m2).Mcr_program.Progdef.version_tag;
  let r2 = Testbed.benchmark kernel server ~scale:(max 1 (100_000 / requests)) () in
  Format.printf "  %a@." Mcr_workloads.Bench_result.pp r2;
  (match holders with
  | Some h ->
      Holders.close_all h;
      ignore
        (K.run_until kernel
           ~max_ns:(K.clock_ns kernel + 60_000_000_000)
           (fun () -> Holders.all_done h));
      Printf.printf "long-lived connections drained cleanly on the %s\n"
        (if report.Manager.success then "new version" else "old version")
  | None -> ());
  Printf.printf "done (virtual time %.1f ms)\n" (ms (K.clock_ns kernel));
  if r2.Mcr_workloads.Bench_result.errors > 0 then exit 1

let run server requests conns fail_update fault_seed quiesce_deadline_ms update_deadline_ms
    precopy transfer_workers fleet canary wave max_unavailable halt verbose =
  if verbose then begin
    Logs.set_reporter (Logs.format_reporter ());
    Logs.set_level (Some Logs.Debug)
  end;
  if fleet > 0 then run_fleet server fleet canary wave max_unavailable halt fault_seed
  else
    run_single server requests conns fail_update fault_seed quiesce_deadline_ms
      update_deadline_ms precopy transfer_workers

open Cmdliner

let server_conv =
  Arg.conv ~docv:"SERVER" (server_of_string, fun ppf s -> Fmt.string ppf (Testbed.name s))

let server =
  Arg.(value & opt server_conv Testbed.Nginx & info [ "server"; "s" ] ~doc:"Server to run.")

let requests =
  Arg.(value & opt int 200 & info [ "requests"; "n" ] ~doc:"Benchmark requests before update.")

let conns =
  Arg.(value & opt int 10 & info [ "conns"; "c" ] ~doc:"Long-lived connections held across the update.")

let fail_update =
  Arg.(value & flag & info [ "fail" ] ~doc:"Update to a version that conflicts (rollback demo; httpd).")

let fault_seed =
  Arg.(value & opt (some int) None
       & info [ "fault-seed" ] ~doc:"Arm a seeded fault plan for the update (deterministic).")

let quiesce_deadline_ms =
  Arg.(value & opt (some int) None
       & info [ "quiesce-deadline-ms" ] ~doc:"Quiescence deadline (virtual ms); blowing it rolls back.")

let update_deadline_ms =
  Arg.(value & opt (some int) None
       & info [ "update-deadline-ms" ] ~doc:"Whole-update deadline (virtual ms); blowing it rolls back.")

let precopy =
  Arg.(value & flag
       & info [ "precopy" ] ~doc:"Iterative pre-copy state transfer (sub-window downtime).")

let transfer_workers =
  Arg.(value & opt int 1
       & info [ "transfer-workers" ]
           ~doc:"Sharded parallel state transfer: worker-pool size (downtime is charged as the critical path over shards).")

let fleet =
  Arg.(value & opt int 0
       & info [ "fleet" ]
           ~doc:"Run $(docv) instances behind the simulated balancer and roll the update \
                 out wave by wave via FLEET ROLLOUT (0 = single-instance demo)." ~docv:"N")

let canary =
  Arg.(value & opt int 1
       & info [ "canary" ] ~doc:"Fleet mode: instances in the first (gating) wave.")

let wave =
  Arg.(value & opt int 4
       & info [ "wave" ] ~doc:"Fleet mode: instances per subsequent wave.")

let max_unavailable =
  Arg.(value & opt int 4
       & info [ "max-unavailable" ]
           ~doc:"Fleet mode: bound on instances simultaneously out of rotation.")

let halt_conv =
  Arg.conv ~docv:"POLICY"
    ( (fun s ->
        match Fleet_policy.halt_of_string s with
        | Some h -> Ok h
        | None -> Error (`Msg ("unknown halt policy " ^ s ^ " (halt_only|rollback_updated)"))),
      fun ppf h -> Fmt.string ppf (Fleet_policy.halt_to_string h) )

let halt =
  Arg.(value & opt halt_conv Fleet_policy.Halt_only
       & info [ "halt" ]
           ~doc:"Fleet mode: what a blocking canary verdict does \
                 ($(b,halt_only)|$(b,rollback_updated)).")

let verbose = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Debug logging.")

let cmd =
  Cmd.v
    (Cmd.info "mcr-demo" ~doc:"Live-update a simulated server with MCR")
    Term.(const run $ server $ requests $ conns $ fail_update $ fault_seed
          $ quiesce_deadline_ms $ update_deadline_ms $ precopy $ transfer_workers
          $ fleet $ canary $ wave $ max_unavailable $ halt $ verbose)

let () = exit (Cmd.eval cmd)
